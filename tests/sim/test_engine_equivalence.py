"""Dispatch-order equivalence: bucket kernel vs a sorted-list reference.

The kernel stores events in per-timestamp buckets with tombstone
cancellation, and run() and step() share one batch walk.  Golden
digests pin whole campaigns; these properties pin the engine semantics
directly: for *any* program of schedules, nested schedules,
schedule-at-``now`` calls, cancellations (at build time or
mid-dispatch) and ``stop()`` calls, driven by any mix of ``run(until)``
and ``step()`` calls, the kernel and the reference model
(``tests/sim/reference_engine.py``: one list ordered by time and post
sequence) must dispatch the same callbacks in the same order at the
same clock readings — plain, with a metrics registry attached and with
a profiler attached.  (The test names predate the reference model; it
replaced a preserved copy of the pre-rewrite heap engine.)
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, SimProfiler
from repro.sim.engine import Simulator
from tests.sim.reference_engine import Simulator as ReferenceSimulator

#: All program times sit on this grid so equal instants are bitwise
#: equal floats (0.125 is exactly representable).
GRID = 0.125

#: One scheduled root event: (frame, behaviour, argument, build-time kill).
_OPS = st.tuples(
    st.integers(min_value=0, max_value=24),
    st.sampled_from(["leaf", "spawn", "spawn_now", "cancel", "stop"]),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)

_PROGRAMS = st.lists(_OPS, min_size=1, max_size=60)

_UNTIL_FRAMES = st.one_of(st.none(), st.integers(min_value=0, max_value=30))

#: How the program is driven before the final drain: ``run(until)``
#: calls (which a ``stop`` root may end early) and bursts of ``step()``.
_DRIVES = st.lists(
    st.one_of(
        st.tuples(st.just("run"), _UNTIL_FRAMES),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=6)),
    ),
    max_size=4,
)


def _execute(sim, program, drives):
    """Run one program and return its observable behaviour.

    The interpreter only uses the public engine API, and every decision
    (which handle a ``cancel`` targets, what a ``spawn`` schedules) is a
    deterministic function of dispatch order — so two engines agree on
    the trace iff they dispatch identically.
    """
    fired = []
    handles = []

    def leaf(index):
        fired.append((sim.now, index, "child"))

    def root(index, kind, arg):
        fired.append((sim.now, index, kind))
        if kind == "spawn":
            handles.append(sim.schedule(arg * GRID, leaf, index))
        elif kind == "spawn_now":
            handles.append(sim.schedule(0.0, leaf, index))
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif kind == "stop":
            sim.stop()

    for index, (frame, kind, arg, kill) in enumerate(program):
        event = sim.schedule(frame * GRID, root, index, kind, arg)
        handles.append(event)
        if kill:
            event.cancel()

    states = []
    for drive, value in drives:
        if drive == "run":
            result = sim.run(until=None if value is None else value * GRID)
        else:
            result = [sim.step() for _ in range(value)]
        states.append((drive, result, sim.now, sim.pending_count(), len(fired)))
    # Drain, resuming after every stop() a root makes.
    while sim.pending_count():
        sim.run()
    return fired, states, sim.now, sim.pending_count()


@given(program=_PROGRAMS, drives=_DRIVES)
@settings(max_examples=100, deadline=None)
def test_kernel_matches_legacy_engine_for_any_program(program, drives):
    new = _execute(Simulator(), program, drives)
    reference = _execute(ReferenceSimulator(), program, drives)
    assert new == reference
    # Every live event fired: the O(1) live counter drained to zero,
    # exactly like the reference model's O(n) scan.
    assert new[3] == 0


@given(program=_PROGRAMS, drives=_DRIVES)
@settings(max_examples=50, deadline=None)
def test_kernel_instrumented_loop_matches_legacy_engine(program, drives):
    """Dispatch with a metrics registry attached preserves order too."""
    sim = Simulator()
    sim.metrics = MetricsRegistry()
    instrumented = _execute(sim, program, drives)
    reference = _execute(ReferenceSimulator(), program, drives)
    assert instrumented == reference
    dispatched = sim.metrics.counter("engine.events_dispatched").value
    assert dispatched == len(instrumented[0])


@given(program=_PROGRAMS, drives=_DRIVES)
@settings(max_examples=50, deadline=None)
def test_kernel_profiled_loop_matches_legacy_engine(program, drives):
    """Dispatch with a profiler attached preserves order too."""
    sim = Simulator()
    sim.profile = SimProfiler()
    profiled = _execute(sim, program, drives)
    reference = _execute(ReferenceSimulator(), program, drives)
    assert profiled == reference
    assert sim.profile.total_events == len(profiled[0])
