"""Edge-semantics tests for the engine's dispatch loop.

These pin down the behaviours the batch walk must preserve:
cancellation of already-dispatched events, scheduling at exactly
``now``, ``run(until=...)`` boundary inclusivity, tie-break ordering
under heavy same-timestamp load, and the schedule and deadline guards
(negative, past, NaN).  Plain and instrumented dispatch are also run
against the same workload to prove identical dispatch order, and a
registry attached mid-run must count from the next instant.
"""

import math

import pytest

from repro.obs import MetricsRegistry, TraceBus
from repro.sim.engine import Simulator
from repro.sim.errors import ScheduleInPastError


def test_cancel_already_dispatched_event_is_harmless():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.run(until=1.5)
    assert fired == ["x"]
    # The event already fired; cancelling it now must not disturb the
    # remaining queue or raise.
    event.cancel()
    event.cancel()
    sim.run()
    assert fired == ["x", "y"]


def test_cancel_own_event_during_dispatch():
    sim = Simulator()
    fired = []

    def self_cancelling(event_box):
        fired.append("ran")
        event_box[0].cancel()  # cancelling mid-dispatch must be a no-op

    box = [None]
    box[0] = sim.schedule(1.0, self_cancelling, box)
    sim.run()
    assert fired == ["ran"]


def test_post_at_exactly_now_fires():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: sim.post_at(sim.now, fired.append, sim.now))
    sim.run()
    assert fired == [3.0]
    assert sim.now == 3.0


def test_run_until_boundary_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "at-boundary")
    sim.schedule(5.0 + 1e-9, fired.append, "after-boundary")
    sim.run(until=5.0)
    # An event at exactly ``until`` fires; one strictly after stays.
    assert fired == ["at-boundary"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["at-boundary", "after-boundary"]


def test_tie_break_order_under_heavy_same_timestamp_load():
    sim = Simulator()
    fired = []
    cancelled = []
    for i in range(2000):
        event = sim.schedule(1.0, fired.append, i)
        if i % 7 == 0:
            event.cancel()
            cancelled.append(i)
    # Interleave a second batch at the same instant scheduled from a
    # dispatched event: they must run after the first batch, in order.
    sim.schedule(1.0, lambda: [sim.schedule(0.0, fired.append, ("late", i)) for i in range(50)])
    sim.run()
    expected = [i for i in range(2000) if i % 7 != 0]
    assert fired[: len(expected)] == expected
    assert fired[len(expected) :] == [("late", i) for i in range(50)]


def test_negative_delay_and_past_time_raise():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(-1e-9, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.post_at(1.999999, lambda: None)


def test_nan_delay_and_time_rejected():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(math.nan, lambda: None)
    with pytest.raises(ScheduleInPastError):
        sim.post_at(math.nan, lambda: None)
    # A NaN deadline would compare false against every event time and
    # drain the whole queue.
    fired = []
    sim.schedule(1.0, fired.append, "pending")
    with pytest.raises(ScheduleInPastError):
        sim.run(until=math.nan)
    assert fired == []
    assert sim.now == 0.0


def test_stop_from_callback_halts_fast_path():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "c"]


def _workload(sim, fired):
    """A branchy workload: nested scheduling, cancellations, ties."""
    def leaf(tag):
        fired.append((sim.now, tag))

    def parent(tag):
        fired.append((sim.now, tag))
        sim.schedule(0.0, leaf, f"{tag}/child-same-time")
        sim.schedule(0.5, leaf, f"{tag}/child-later")
        doomed = sim.schedule(0.25, leaf, f"{tag}/doomed")
        doomed.cancel()

    for i in range(50):
        sim.schedule(1.0 + (i % 5) * 0.125, parent, f"p{i}")


def test_fast_and_instrumented_paths_dispatch_identically():
    plain_sim = Simulator()
    plain_fired = []
    _workload(plain_sim, plain_fired)
    plain_sim.run()

    metered_sim = Simulator()
    metered_sim.metrics = MetricsRegistry()
    metered_fired = []
    _workload(metered_sim, metered_fired)
    metered_sim.run()

    assert plain_fired == metered_fired
    assert plain_sim.now == metered_sim.now
    dispatched = metered_sim.metrics.counter("engine.events_dispatched").value
    assert dispatched == len(metered_fired)


@pytest.mark.parametrize("traced", [False, True])
def test_registry_attached_mid_run_counts_from_next_instant(traced):
    sim = Simulator()
    if traced:
        sim.trace = TraceBus(sim)
    registry = MetricsRegistry()

    def attach():
        sim.metrics = registry

    sim.schedule(1.0, attach)
    sim.schedule(2.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert registry.counter("engine.events_dispatched").value == 3


def test_raising_callback_keeps_the_rest_of_its_batch():
    """An exception out of one callback leaves its same-instant
    batch-mates queued: the next run dispatches them at that instant."""
    sim = Simulator()
    out = []

    def boom():
        raise RuntimeError("boom")

    sim.post(1.0, boom)
    sim.post(1.0, out.append, "x")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.pending_count() == 1
    sim.run()
    assert out == ["x"]
    assert sim.now == 1.0
    assert sim.pending_count() == 0
