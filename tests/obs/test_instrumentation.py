"""Integration tests: the instrumented stack under the Observability facade.

Covers the PR's acceptance bar: spans for every dial-up phase and vsys
command, a flight-recorder dump on a forced dial failure, and — most
importantly — that attaching the instrumentation does not change what
the scenario does (sink-attached and bare runs agree event for event).
"""

from repro import OneLabScenario
from repro.obs import KIND_SPAN_END, KIND_SPAN_START, KIND_TRANSITION, Observability


def run_demo(scenario):
    """The demo walk-through; returns the ``umts start`` result."""
    umts = scenario.umts_command()
    result = umts.start_blocking()
    if result.ok:
        umts.add_destination_blocking(scenario.inria_addr)
        # One marked packet down the UMTS path, so the netfilter
        # counters have something to count.
        scenario.napoli_sliver.socket().sendto(
            "probe", 10, scenario.inria_addr, 7777
        )
        scenario.sim.run(until=scenario.sim.now + 2.0)
        umts.status_blocking()
        umts.stop_blocking()
    return result


def run_instrumented(seed=3, fail=False):
    scenario = OneLabScenario(seed=seed)
    obs = Observability(scenario.sim)
    obs.bind_node(scenario.napoli)
    events = obs.record_events()
    if fail:
        def refuse(modem, apn=None):
            raise RuntimeError("no radio bearer available")

        scenario.napoli.modem.network.open_data_call = refuse
    result = run_demo(scenario)
    return scenario, obs, events.events, result


def span_names(events, kind=KIND_SPAN_START):
    return [e.name for e in events if e.kind == kind]


def test_all_dial_phases_emit_spans():
    _, _, events, result = run_instrumented()
    assert result.ok
    starts = span_names(events)
    for phase in (
        "vsys.request",
        "umts.cmd",
        "umts.connect",
        "dial.register",
        "dial.dial",
        "ppp.lcp.negotiation",
        "ppp.ipcp.negotiation",
        "umts.disconnect",
    ):
        assert phase in starts, f"missing span for phase {phase}"
    # Every opened span is closed.
    assert sorted(starts) == sorted(span_names(events, KIND_SPAN_END))
    assert "dial.addr_assigned" in [e.name for e in events]


def test_connection_state_transitions_are_traced():
    _, _, events, _ = run_instrumented()
    transitions = [
        (e.fields["old"], e.fields["new"])
        for e in events
        if e.kind == KIND_TRANSITION and e.name == "umts.connection.state"
    ]
    assert ("down", "registering") in transitions
    assert ("registering", "dialing") in transitions
    assert ("negotiating", "up") in transitions


def test_metrics_cover_the_demo_run():
    _, obs, _, _ = run_instrumented()
    metrics = obs.metrics
    assert metrics.counter("vsys.requests").value == 4
    assert metrics.counter("umts.connects").value == 1
    assert metrics.histogram("vsys.latency_seconds").count == 4
    assert metrics.counter("engine.events_dispatched").value > 0
    assert metrics.counter("netfilter.marked").value > 0


def test_forced_dial_failure_dumps_the_flight_recorder():
    _, obs, events, result = run_instrumented(fail=True)
    assert not result.ok
    assert obs.flight.dumps, "no flight-recorder dump on dial failure"
    dump = obs.flight.last_dump()
    assert dump[-1].name == "dial.dial.failed"
    failed_ends = [
        e for e in events if e.kind == KIND_SPAN_END and e.status == "error"
    ]
    assert any(e.name == "dial.dial" for e in failed_ends)


def test_attached_sink_does_not_change_scenario_results():
    # Determinism: the instrumented run must reproduce the bare run
    # exactly — same output lines, same simulated clock at every step.
    bare = OneLabScenario(seed=3)
    bare_result = run_demo(bare)

    instrumented, _, events, inst_result = run_instrumented(seed=3)
    assert inst_result.lines == bare_result.lines
    assert inst_result.code == bare_result.code
    assert instrumented.sim.now == bare.sim.now
    assert events, "the instrumented run should have recorded events"


def test_no_sink_leaves_no_footprint():
    # Hooks are present but cold: nothing attached, identical results.
    bare = OneLabScenario(seed=7)
    bare_result = run_demo(bare)

    cold = OneLabScenario(seed=7)
    assert cold.sim.trace is None
    assert cold.sim.metrics is None
    cold_result = run_demo(cold)
    assert cold_result.lines == bare_result.lines
    assert cold.sim.now == bare.sim.now


def test_detach_unbinds_the_nodes():
    # A detached registry must not keep counting marked slice packets.
    scenario = OneLabScenario(seed=3)
    obs = Observability(scenario.sim)
    obs.bind_node(scenario.napoli)
    obs.detach()
    before = obs.metrics.snapshot()
    umts = scenario.umts_command()
    assert umts.start_blocking().ok
    umts.add_destination_blocking(scenario.inria_addr)
    sock = scenario.napoli_sliver.socket()
    for _ in range(5):
        sock.sendto("probe", 10, scenario.inria_addr, 7777)
    scenario.sim.run(until=scenario.sim.now + 2.0)
    assert obs.metrics.snapshot() == before
    assert scenario.napoli.stack.netfilter.metrics is None
