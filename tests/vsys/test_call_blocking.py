"""``call_blocking`` as one engine walk, held to the ``step()`` loop.

``call_blocking`` runs the engine once per call, and the front-end stops
that walk in the very dispatch in which it returns.  A ``step()`` loop
that polls ``alive`` after every dispatch stops at the same event, so
both must dispatch the same callbacks in the same order, even when a
concurrent process keeps posting same-instant events around every call.
``step_loop_call`` below is the loop ``call_blocking`` used to run.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.process import Signal, spawn
from repro.testbed.scenarios import OneLabScenario
from repro.vsys.daemon import VsysDaemon, VsysError

DESTINATIONS = [f"138.96.{i}.100" for i in range(8)]
SESSION = (
    [["start"]]
    + [["add", d] for d in DESTINATIONS]
    + [["status"]]
    + [["del", d] for d in DESTINATIONS]
    + [["stop"]]
)


def step_loop_call(conn, argv):
    """One dispatch per ``step()`` until the front-end is no longer alive."""
    process = conn.call(argv)
    while process.alive:
        if not conn._sim.step():
            raise VsysError(f"vsys call {argv!r} deadlocked (no pending events)")
    return process.value


def blocking_call(conn, argv):
    return conn.call_blocking(argv)


class DispatchLog:
    """A ``sim.profile`` stand-in that records every dispatched callback."""

    def __init__(self):
        self.events = []

    def record(self, callback, now, elapsed):
        owner = getattr(callback, "__self__", None)
        self.events.append((now, getattr(callback, "__qualname__", repr(callback)),
                            getattr(owner, "name", None)))


def chatter(sim, kick, log):
    """On every kick, interleave zero-delay posts with zero-delay sleeps."""
    while True:
        tag = yield kick
        for k in range(3):
            sim.post(0.0, log.append, ("post", tag, k))
            yield 0.0
            log.append(("resumed", tag, k))


def run_session(call):
    scenario = OneLabScenario(seed=3)
    sim = scenario.sim
    umts = scenario.umts_command()
    dispatched = DispatchLog()
    sim.profile = dispatched
    log = []
    kick = Signal(sim, "kick")
    spawn(sim, chatter(sim, kick, log), name="chatter")
    replies = []
    for index, argv in enumerate(SESSION):
        kick.fire(index)
        sim.post(0.0, log.append, ("before", index))
        reply = call(umts._conn, argv)
        log.append(("returned", index, sim.now))
        sim.post(0.0, log.append, ("after", index))
        replies.append(reply)
    sim.run()
    return replies, sim.now, log, dispatched.events


def test_call_blocking_dispatches_like_the_step_loop():
    old = run_session(step_loop_call)
    new = run_session(blocking_call)
    replies, now, log, events = new
    assert all(reply.ok for reply in replies), [r.text for r in replies]
    assert replies == old[0]
    assert now == old[1]
    assert log == old[2]
    assert events == old[3]
    # The chatter really did interleave with the calls.
    assert ("post", 1, 0) in log and ("resumed", 1, 2) in log


def _daemon(sim, handler):
    daemon = VsysDaemon(sim, "node")
    daemon.register("script", handler, acl=["s"])
    return daemon.open("s", "script")


def slow(slice_name, argv):
    yield 5.0
    return 0, ["done"]


def test_deadlocked_call_raises():
    sim = Simulator()

    def stuck(slice_name, argv):
        yield Signal(sim, "never")

    conn = _daemon(sim, stuck)
    with pytest.raises(VsysError, match="deadlocked"):
        conn.call_blocking(["go"])
    assert sim.pending_count() == 0


def test_foreign_stop_does_not_end_the_call_early():
    sim = Simulator()
    conn = _daemon(sim, slow)
    sim.schedule(1.0, sim.stop)
    result = conn.call_blocking(["go"])
    assert result.lines == ["done"]
    assert sim.now == 5.0


@pytest.mark.parametrize("call", [step_loop_call, blocking_call])
def test_interrupted_call_returns_at_the_interrupt(call):
    sim = Simulator()
    conn = _daemon(sim, slow)
    sim.schedule(1.0, lambda: conn._inflight.interrupt("cancelled"))
    sim.schedule(2.0, lambda: None)
    assert call(conn, ["go"]) is None
    assert sim.now == 1.0


def test_session_event_count_is_pinned():
    """One seed-3 session dispatches this many engine events.

    A reply that again costs one event per line, or a blocking call
    that again leaves events for a later walk, changes the count.
    """
    scenario = OneLabScenario(seed=3)
    scenario.sim.metrics = MetricsRegistry()
    umts = scenario.umts_command()
    replies = [umts._conn.call_blocking(argv) for argv in SESSION]
    assert all(reply.ok for reply in replies)
    assert scenario.sim.metrics.counter("engine.events_dispatched").value == 138


def test_reply_owed_to_an_interrupted_call_is_discarded():
    """The back-end still answers a call its front-end gave up on; the
    next call on the connection skips that reply and gets its own."""
    sim = Simulator()

    def echo(slice_name, argv):
        yield 5.0
        return 0, [f"reply to {argv[0]}"]

    conn = _daemon(sim, echo)
    sim.schedule(1.0, lambda: conn._inflight.interrupt("cancelled"))
    assert conn.call_blocking(["one"]) is None
    assert sim.now == 1.0
    result = conn.call_blocking(["two"])
    assert result.lines == ["reply to two"]
    assert sim.now == 10.0


def test_eof_while_discarding_a_stale_reply_ends_the_call():
    sim = Simulator()
    conn = _daemon(sim, slow)
    sim.schedule(1.0, lambda: conn._inflight.interrupt("cancelled"))
    assert conn.call_blocking(["one"]) is None
    sim.schedule(1.0, conn.pipe.close)
    result = conn.call_blocking(["two"])
    assert result.lines == ["vsys: connection closed"]
    assert sim.now == 2.0
