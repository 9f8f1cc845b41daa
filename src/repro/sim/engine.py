"""The discrete-event engine: a shared kernel for fleet-scale groups.

A :class:`Simulator` owns a virtual clock and a time-bucketed event
store.  Components schedule callbacks with :meth:`Simulator.schedule`
(relative delay, cancellable), :meth:`Simulator.post` (relative
delay, fire-and-forget) or :meth:`Simulator.post_at` (absolute time,
fire-and-forget) and the main loop dispatches them in timestamp order.
Ties are broken by insertion order, which keeps runs bit-for-bit
deterministic.

Storage is bucketed rather than heap-of-objects: the heap orders bare
``float`` timestamps (so every sift compares machine floats in C, the
cheapest possible key), and a dict maps each distinct pending
timestamp to a flat ``[callback, args, callback, args, ...]`` *bucket*
holding that instant's events in insertion order.  A whole bucket is
dispatched per heap pop — at fleet scale, where hundreds of nodes
share TTI-aligned radio instants, that amortises the heap to a few
hundred pops per simulated second no matter how many datacalls ride
the kernel.

Cancellation tombstones the bucket cell in place: an :class:`Event`
handle captures the bucket list and the index its callback occupies,
and :meth:`Event.cancel` overwrites both cells with ``None`` —
dropping the callback/argument references immediately — and decrements
the O(1) live-event census (:attr:`Simulator.pending_count`, the
``engine.queue_depth`` gauge).  The dispatch loop likewise overwrites
each callback cell as it fires, so a cancel that lands after the event
ran is a natural no-op, a cancelled cell is skipped by one ``is None``
test, and nothing cancelled ever reaches — or lingers in — the heap:
the classic lazy-deletion pile of dead heap entries cannot form.

Dispatch is one batch walk shared by :meth:`Simulator.run` and
:meth:`Simulator.step`: it pops one heap timestamp per batch and
decides *once per batch* whether instrumentation is attached.  When
``metrics`` and ``profile`` are both ``None`` (the observability
layer's no-sink contract) each event is a bare ``cb(*args)``: no
``time.perf_counter`` pair, no histogram update.  Otherwise every
event of the batch goes through the instrumented dispatch, where
metric handles are resolved once per registry (not per event) and
the profiler is handed the callback itself.  A sink attached by a
callback mid-batch takes effect at the next instant.  Dispatch order
does not depend on instrumentation, so instrumented and
uninstrumented runs are bit-for-bit identical.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.errors import ScheduleInPastError

#: Histogram edges for per-event wall-clock dispatch cost (seconds).
DISPATCH_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)

# Module-level aliases: the schedulers run once per event, where even a
# ``heapq.``-attribute load shows up at fleet volume.
_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A cancellation handle for one scheduled callback.

    Events are created by the simulator; user code holds them only to
    :meth:`cancel` them.  The handle captures the bucket list and the
    index its callback occupies: cancelling tombstones both cells to
    ``None`` in O(1), dropping the callback/argument references on the
    spot, and dispatch skips the dead cell with one ``is None`` test.
    The dispatch loop tombstones the callback cell as it fires too, so
    a handle whose event already ran cancels as a harmless no-op —
    there is no recycled storage a stale handle could alias.
    """

    __slots__ = ("_sim", "_bucket", "_idx")

    def __init__(self, sim: "Simulator", bucket: List[Any], idx: int) -> None:
        self._sim = sim
        self._bucket = bucket
        self._idx = idx

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a cancel that
        lands after the event already fired is a harmless no-op."""
        bucket = self._bucket
        idx = self._idx
        if bucket[idx] is not None:
            bucket[idx] = None
            bucket[idx + 1] = None
            self._sim._live -= 1


class Simulator:
    """Single-threaded discrete-event simulator.

    The clock is the plain attribute :attr:`now`.  It starts at ``0.0``
    and only moves forward, driven by the timestamps of dispatched
    events.  Components read it freely; only the engine's dispatch walk
    and :meth:`run` write it.  Time is measured in **seconds**
    throughout the code base.

    Example::

        sim = Simulator()
        sim.schedule(1.0, print, "one second elapsed")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        #: current simulation time in seconds (written only by the engine).
        self.now = 0.0
        #: heap of pending timestamps (bare floats; may hold a
        #: duplicate when a bucket is re-created at the active instant).
        self._times: List[float] = []
        #: distinct timestamp -> flat ``[callback, args, ...]`` bucket in
        #: insertion order; cancelled/fired cells are tombstoned ``None``.
        self._buckets: Dict[float, List[Any]] = {}
        #: O(1) census of scheduled, not-yet-fired, not-cancelled events.
        self._live = 0
        #: a partially dispatched batch left by :meth:`stop`, :meth:`step`
        #: or a raising callback: ``(time, bucket, resume_index)``.
        self._active: Optional[Tuple[float, List[Any], int]] = None
        #: the walk returns after the current dispatch (set by
        #: :meth:`stop`, and by :meth:`step` for its single dispatch).
        self._stopped = False
        #: optional :class:`~repro.obs.TraceBus`; components check this
        #: before emitting, so ``None`` keeps the stack uninstrumented.
        self.trace: Optional[Any] = None
        #: optional :class:`~repro.obs.MetricsRegistry` (same contract).
        self.metrics: Optional[Any] = None
        #: optional :class:`~repro.obs.SimProfiler` fed once per dispatch
        #: (same zero-cost-when-``None`` contract as ``metrics``).
        self.profile: Optional[Any] = None
        #: optional :class:`~repro.faults.FaultRegistry`; injection
        #: points check this before consulting fault plans, so ``None``
        #: keeps unfaulted runs bit-identical.
        self.faults: Optional[Any] = None
        # Metric handles, resolved once per attached registry.
        self._metrics_src: Optional[Any] = None
        self._m_dispatched: Any = None
        self._m_wall: Any = None
        self._m_depth: Any = None

    # -- scheduling --------------------------------------------------------
    #
    # The bucket-insert sequence is spelled out inline in all three
    # entry points: one Python call frame per scheduled event is
    # measurable at fleet volume, and these three bodies are the only
    # copies.

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  A negative
        (or NaN) delay raises :class:`ScheduleInPastError`.
        """
        if not delay >= 0:  # rejects negatives and NaN in one comparison
            raise ScheduleInPastError(f"negative delay {delay!r}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = [callback, args]
            self._buckets[when] = bucket
            _heappush(self._times, when)
            idx = 0
        else:
            idx = len(bucket)
            bucket.append(callback)
            bucket.append(args)
        self._live += 1
        return Event(self, bucket, idx)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle.

        The hot-path variant for call sites that never cancel — signal
        fan-out, store hand-offs, process resumes — saving one handle
        allocation per event.  Semantics are otherwise identical to
        :meth:`schedule`, including the dispatch-order tie-break.
        """
        if not delay >= 0:
            raise ScheduleInPastError(f"negative delay {delay!r}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [callback, args]
            _heappush(self._times, when)
        else:
            bucket.append(callback)
            bucket.append(args)
        self._live += 1

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the absolute time ``time``.

        The absolute-time twin of :meth:`post` (no :class:`Event`
        handle), for grid-aligned work (TTI deliveries, frame
        boundaries) whose timestamps must be computed once and shared
        exactly across many schedulers rather than re-derived through
        ``now + delay`` float arithmetic.  A time earlier than the
        clock — or NaN, which would silently corrupt the queue
        ordering — raises :class:`ScheduleInPastError`.
        """
        if not time >= self.now:
            if math.isnan(time):
                raise ScheduleInPastError(f"cannot schedule at NaN time {time!r}")
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}; clock already at {self.now!r}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, args]
            _heappush(self._times, time)
        else:
            bucket.append(callback)
            bucket.append(args)
        self._live += 1

    def stop(self) -> None:
        """Make :meth:`run` return after the event being dispatched."""
        self._stopped = True

    # -- introspection -----------------------------------------------------

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    # -- dispatch ----------------------------------------------------------

    def _dispatch_instrumented(
        self, cb: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        """Dispatch one event under timing/metrics instrumentation."""
        start = time.perf_counter()
        cb(*args)
        elapsed = time.perf_counter() - start
        metrics = self.metrics
        if metrics is not None:
            if metrics is not self._metrics_src:
                self._metrics_src = metrics
                self._m_dispatched = metrics.counter("engine.events_dispatched")
                self._m_wall = metrics.histogram(
                    "engine.dispatch_wall_seconds", DISPATCH_BUCKETS
                )
                self._m_depth = metrics.gauge("engine.queue_depth")
            self._m_dispatched.inc()
            self._m_wall.observe(elapsed)
            self._m_depth.set(self._live)
        profile = self.profile
        if profile is not None:
            profile.record(cb, self.now, elapsed)

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        With ``until=None`` the loop drains the queue completely.  With a
        deadline, events strictly after ``until`` are left pending and
        the clock is advanced exactly to ``until``.  Returns the final
        clock value.  A NaN deadline raises :class:`ScheduleInPastError`.
        """
        if until is not None and math.isnan(until):
            raise ScheduleInPastError(f"cannot run until NaN time {until!r}")
        self._stopped = False
        self._walk(math.inf if until is None else until)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Dispatch the next event.  Returns ``False`` if none remained.

        A step is a walk stopped after its first dispatch, so it works
        the same whether or not an earlier :meth:`run` ended in
        :meth:`stop`.
        """
        self._stopped = True
        return self._walk(math.inf)

    def _walk(self, until: float) -> bool:
        """Dispatch events due by ``until`` in order, one batch per heap pop.

        Returns ``True`` when a dispatch set ``_stopped`` (the rest of
        its batch is parked in ``_active`` for the next walk) and
        ``False`` when nothing due by ``until`` remains.  A callback's
        exception propagates with the rest of its batch parked the same
        way.
        """
        times = self._times
        buckets = self._buckets
        while True:
            active = self._active
            if active is not None:
                when, bucket, i = active
                if when > until:
                    return False
                self._active = None
            else:
                if not times:
                    return False
                when = times[0]
                if when > until:
                    return False
                _heappop(times)
                maybe = buckets.pop(when, None)
                if maybe is None:  # duplicate timestamp, already dispatched
                    continue
                bucket = maybe
                i = 0
            plain = self.metrics is None and self.profile is None
            n = len(bucket)
            try:
                while i < n:
                    cb = bucket[i]
                    if cb is None:  # cancelled: tombstoned cell
                        i += 2
                        continue
                    args = bucket[i + 1]
                    bucket[i] = None  # fired: a late cancel is a no-op
                    i += 2
                    self._live -= 1
                    # The clock moves only when something actually
                    # fires: an all-cancelled bucket must not advance it.
                    self.now = when
                    if plain:
                        cb(*args)
                    else:
                        self._dispatch_instrumented(cb, args)
                    if self._stopped:
                        if i < n:
                            self._active = (when, bucket, i)
                        return True
            except BaseException:
                # A raising callback must not take the rest of its batch
                # with it: those events are still counted in ``_live``.
                if i < n:
                    self._active = (when, bucket, i)
                raise
