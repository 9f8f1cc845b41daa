"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import ScheduleInPastError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_run_until_leaves_later_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(-0.1, lambda: None)


def test_post_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.post_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_scheduled_during_dispatch_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_zero_delay_event_fires_at_same_time():
    sim = Simulator()
    times = []
    sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [3.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a"]
    # Run again continues with the remaining event.
    sim.run()
    assert fired == ["a", "c"]


def test_step_dispatches_after_run_ended_by_stop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(1.0, fired.append, "same-instant")
    sim.schedule(2.0, fired.append, "later")
    sim.run()
    assert fired == []
    # The stop flag left by run() must not make step() a no-op: the
    # blocking vsys/DNS loops step the kernel after stopped runs.
    assert sim.step() is True
    assert fired == ["same-instant"]
    assert sim.step() is True
    assert fired == ["same-instant", "later"]
    assert sim.now == 2.0
    assert sim.step() is False


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    keep.cancel()
    assert sim.pending_count() == 0


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_many_events_monotone_clock():
    sim = Simulator()
    stamps = []
    import random

    rng = random.Random(7)
    for _ in range(500):
        sim.schedule(rng.uniform(0, 100), lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 500
