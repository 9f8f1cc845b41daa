"""Unit tests for processes, signals and stores."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.process import Interrupt, Process, Signal, Store, spawn


def test_process_sleeps_on_numeric_yield():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield 2.5
        trace.append(("woke", sim.now))

    spawn(sim, proc())
    sim.run()
    assert trace == [("start", 0.0), ("woke", 2.5)]


def test_process_integer_yield():
    sim = Simulator()
    done = []

    def proc():
        yield 3
        done.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert done == [3.0]


def test_process_completion_sets_value():
    sim = Simulator()

    def proc():
        yield 1.0
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert not p.alive
    assert p.value == 42


def test_process_waits_on_signal_and_receives_value():
    sim = Simulator()
    sig = Signal(sim, "go")
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule(4.0, sig.fire, "payload")
    sim.run()
    assert got == [(4.0, "payload")]


def test_signal_wakes_multiple_waiters():
    sim = Simulator()
    sig = Signal(sim, "go")
    woken = []

    def waiter(tag):
        yield sig
        woken.append(tag)

    for tag in "abc":
        spawn(sim, waiter(tag))
    sim.schedule(1.0, sig.fire)
    sim.run()
    assert sorted(woken) == ["a", "b", "c"]


def test_signal_fire_only_wakes_current_waiters():
    sim = Simulator()
    sig = Signal(sim, "go")
    woken = []

    def late_waiter():
        yield 5.0
        yield sig
        woken.append("late")

    spawn(sim, late_waiter())
    sim.schedule(1.0, sig.fire)  # fires before the waiter blocks
    sim.run(until=10.0)
    assert woken == []


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    store.put("hello")
    spawn(sim, consumer())
    sim.run()
    assert got == ["hello"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    spawn(sim, consumer())
    sim.schedule(3.0, store.put, "x")
    sim.run()
    assert got == [(3.0, "x")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        while True:
            item = yield store.get()
            got.append(item)
            if item == "stop":
                return

    for item in ["a", "b", "c", "stop"]:
        store.put(item)
    spawn(sim, consumer())
    sim.run()
    assert got == ["a", "b", "c", "stop"]


def test_store_get_nowait_raises_when_empty():
    sim = Simulator()
    store = Store(sim)
    with pytest.raises(IndexError):
        store.get_nowait()


def test_process_waits_on_other_process():
    sim = Simulator()
    order = []

    def worker():
        yield 2.0
        order.append("worker done")
        return "result"

    def boss():
        value = yield w
        order.append(f"boss saw {value}")

    w = spawn(sim, worker())
    spawn(sim, boss())
    sim.run()
    assert order == ["worker done", "boss saw result"]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    result = []

    def worker():
        yield 1.0
        return "early"

    w = spawn(sim, worker())

    def boss():
        yield 5.0  # worker finished long ago
        value = yield w
        result.append((sim.now, value))

    spawn(sim, boss())
    sim.run()
    assert result == [(5.0, "early")]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    trace = []

    def proc():
        try:
            yield 100.0
        except Interrupt as exc:
            trace.append((sim.now, exc.cause))

    p = spawn(sim, proc())
    sim.schedule(2.0, p.interrupt, "teardown")
    sim.run()
    assert trace == [(2.0, "teardown")]
    assert not p.alive


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def proc():
        yield 1.0

    p = spawn(sim, proc())
    sim.run()
    p.interrupt("too late")
    sim.run()


def test_unhandled_interrupt_kills_process():
    sim = Simulator()

    def proc():
        yield 100.0

    p = spawn(sim, proc())
    sim.schedule(1.0, p.interrupt)
    sim.run()
    assert not p.alive


def test_process_whose_generator_raises_is_dead():
    sim = Simulator()
    observed = []

    def proc():
        yield 1.0
        raise RuntimeError("crashed")

    p = spawn(sim, proc())
    p.done.wait(observed.append)
    with pytest.raises(RuntimeError):
        sim.run()
    assert not p.alive
    assert observed == []  # a crash is not a completion


def test_process_raising_while_interrupted_is_dead():
    sim = Simulator()

    def proc():
        try:
            yield 100.0
        except Interrupt:
            raise ValueError("cleanup failed")

    p = spawn(sim, proc())
    sim.schedule(1.0, p.interrupt)
    with pytest.raises(ValueError):
        sim.run()
    assert not p.alive


def test_interrupt_cancels_pending_sleep():
    sim = Simulator()
    trace = []

    def proc():
        try:
            yield 100.0
        except Interrupt:
            trace.append("interrupted")
            yield 1.0
            trace.append("slept again")

    p = spawn(sim, proc())
    sim.schedule(2.0, p.interrupt)
    sim.run()
    assert trace == ["interrupted", "slept again"]
    assert sim.now == pytest.approx(3.0)


def test_invalid_yield_raises():
    sim = Simulator()

    def proc():
        yield "not a waitable"

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_yielding_unsupported_value_is_dead():
    sim = Simulator()
    observed = []

    def proc():
        yield 1.0
        yield "bad"

    p = spawn(sim, proc())
    p.done.wait(observed.append)
    with pytest.raises(SimulationError):
        sim.run()
    assert not p.alive
    assert observed == []


def test_process_yielding_unsupported_value_after_interrupt_is_dead():
    sim = Simulator()

    def proc():
        try:
            yield 100.0
        except Interrupt:
            yield "bad"

    p = spawn(sim, proc())
    sim.schedule(1.0, p.interrupt)
    with pytest.raises(SimulationError):
        sim.run()
    assert not p.alive


def test_untimed_store_get_is_the_store_itself():
    sim = Simulator()
    store = Store(sim, "s")
    assert store.get() is store
    assert store.get(timeout=1.0) is not store.get(timeout=1.0)


def test_process_done_signal_fires():
    sim = Simulator()
    observed = []

    def proc():
        yield 1.0
        return "v"

    p = spawn(sim, proc())
    p.done.wait(observed.append)
    sim.run()
    assert observed == ["v"]


def test_process_repr_and_name():
    sim = Simulator()

    def proc():
        yield 0.1

    p = Process(sim, proc(), name="my-proc")
    assert "my-proc" in repr(p)
    sim.run()


def test_interrupted_store_getter_does_not_swallow_items():
    """Regression: a process interrupted while blocked on store.get()
    must deregister; otherwise the next put() is silently consumed."""
    sim = Simulator()
    store = Store(sim)

    def stale_reader():
        yield store.get()

    def live_reader(got):
        item = yield store.get()
        got.append(item)

    stale = spawn(sim, stale_reader())
    sim.run()  # stale reader is now blocked on the store
    stale.interrupt("stop")
    sim.run()
    got = []
    spawn(sim, live_reader(got))
    store.put("precious")
    sim.run()
    assert got == ["precious"]
