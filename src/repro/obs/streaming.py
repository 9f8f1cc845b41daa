"""Online, constant-memory aggregation for campaign-scale telemetry.

The analysis layer historically buffered a whole run's samples (one
``List[List[float]]`` bucket table per windowed series) before
aggregating.  That is fine for one 120 s characterization and hopeless
for fleet-scale campaigns holding millions of samples.
:class:`StreamingWindows` consumes samples **one at a time, in time
order**, and keeps only O(1) state per open window: the paper's
non-overlapping 200 ms QoS windows (mean/sum/count/max/min), computed
online.  Fed the same samples in the same order, it reproduces
:meth:`~repro.sim.monitor.TimeSeries.window_average` and friends
bit-for-bit (same left-to-right float accumulation), which is what
lets the decoder swap it in without moving a golden digest.

Nothing here imports the simulator; the engine (or a decoder walking
recorded logs) just calls ``add``.  For column-shaped inputs —
parallel lists or ``array('d')`` sample columns — the ``add_many``
bulk path folds a whole batch per call with the accumulator state held
in locals; it is bit-identical to the one-at-a-time calls (same
left-to-right float accumulation), just several times cheaper at fleet
volume.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: The paper's reporting granularity (§3.1): 200 ms windows.
QOS_WINDOW = 0.2

#: Aggregation modes StreamingWindows understands.
WINDOW_MODES = ("mean", "sum", "count", "max", "min")


class StreamingWindows:
    """Non-overlapping window aggregation, one sample at a time.

    Samples must arrive with non-decreasing timestamps.  Only the open
    window's accumulator (count, running sum, extremes) is held; when a
    sample crosses a window edge the finished window's aggregate is
    appended to the output arrays and the accumulator resets — constant
    memory beyond the output itself.

    ``end`` (known up front, or passed to :meth:`finish`) fixes the
    window count exactly like ``TimeSeries.window_aggregate``: samples
    at or past ``end`` are dropped, and the last window absorbs any
    index overflow from float division at the edge.
    """

    __slots__ = (
        "window", "mode", "start", "empty_value", "end",
        "times", "values",
        "_open_index", "_count", "_total", "_min", "_max", "_closed",
    )

    def __init__(
        self,
        window: float = QOS_WINDOW,
        mode: str = "mean",
        start: float = 0.0,
        end: Optional[float] = None,
        empty_value: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if mode not in WINDOW_MODES:
            raise ValueError(f"unknown mode {mode!r} (known: {', '.join(WINDOW_MODES)})")
        self.window = window
        self.mode = mode
        self.start = start
        self.end = end
        if empty_value is None:
            empty_value = 0.0 if mode in ("sum", "count") else math.nan
        self.empty_value = empty_value
        self.times: List[float] = []
        self.values: List[float] = []
        self._open_index = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._closed = False

    def _n_windows(self, end: float) -> int:
        return max(0, int(math.ceil((end - self.start) / self.window)))

    def _index_for(self, t: float) -> int:
        index = int((t - self.start) / self.window)
        if self.end is not None:
            n_windows = self._n_windows(self.end)
            if index >= n_windows:
                index = n_windows - 1
        return index

    def _aggregate(self) -> float:
        if self._count == 0:
            return self.empty_value
        if self.mode == "mean":
            return self._total / self._count
        if self.mode == "sum":
            return self._total
        if self.mode == "count":
            return float(self._count)
        if self.mode == "max":
            return self._max
        return self._min

    def _close_through(self, index: int) -> None:
        """Emit every window before ``index`` (gaps get the empty value)."""
        while self._open_index < index:
            self.times.append(self.start + self._open_index * self.window)
            self.values.append(self._aggregate())
            self._open_index += 1
            self._count = 0
            self._total = 0.0
            self._min = math.inf
            self._max = -math.inf

    def add(self, t: float, value: float) -> None:
        """Fold one sample in.  Timestamps must be non-decreasing."""
        if self._closed:
            raise ValueError("cannot add to a finished StreamingWindows")
        if t < self.start:
            return
        if self.end is not None and t >= self.end:
            return
        index = self._index_for(t)
        if index < self._open_index:
            raise ValueError(
                f"sample at {t!r} belongs to window {index}, already closed "
                f"(open window is {self._open_index})"
            )
        self._close_through(index)
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def add_many(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Fold a whole column batch in, bit-identical to repeated :meth:`add`.

        ``times`` and ``values`` are parallel sequences — plain lists or
        ``array('d')`` columns both work.  The accumulator state lives
        in locals for the duration of the batch (one attribute load per
        batch instead of several per sample), but every float is folded
        in strictly left to right with the same operations as
        :meth:`add`, so window aggregates — and the golden digests built
        from them — cannot move.
        """
        if self._closed:
            raise ValueError("cannot add to a finished StreamingWindows")
        start = self.start
        window = self.window
        end = self.end
        n_windows = self._n_windows(end) if end is not None else 0
        open_index = self._open_index
        count = self._count
        total = self._total
        vmin = self._min
        vmax = self._max
        for t, value in zip(times, values):
            if t < start:
                continue
            if end is not None:
                if t >= end:
                    continue
                index = int((t - start) / window)
                if index >= n_windows:
                    index = n_windows - 1
            else:
                index = int((t - start) / window)
            if index != open_index:
                if index < open_index:
                    # Restore state so the error path leaves the
                    # aggregator exactly as repeated add() would.
                    self._count = count
                    self._total = total
                    self._min = vmin
                    self._max = vmax
                    raise ValueError(
                        f"sample at {t!r} belongs to window {index}, already "
                        f"closed (open window is {open_index})"
                    )
                # Window edge crossed: flush locals and emit through the
                # shared close path, then resume with a fresh accumulator.
                self._count = count
                self._total = total
                self._min = vmin
                self._max = vmax
                self._close_through(index)
                open_index = self._open_index
                count = 0
                total = 0.0
                vmin = math.inf
                vmax = -math.inf
            count += 1
            total += value
            if value > vmax:
                vmax = value
            if value < vmin:
                vmin = value
        self._count = count
        self._total = total
        self._min = vmin
        self._max = vmax

    def finish(self, end: Optional[float] = None) -> Tuple[List[float], List[float]]:
        """Close the open window, pad to ``end``, return (times, values).

        Idempotent; after finishing, :meth:`add` raises.  With no
        ``end`` anywhere, the output stops after the last fed window.
        """
        if not self._closed:
            if end is not None and self.end is None:
                self.end = end
            final_end = self.end
            if final_end is None:
                final_end = self.start + (self._open_index + 1) * self.window \
                    if (self._count or self.times) else self.start
            self._close_through(self._n_windows(final_end))
            self._closed = True
        return self.times, self.values

    def __len__(self) -> int:
        return len(self.times)
