"""Time-series recording and windowed aggregation.

The paper reports every QoS parameter as "average values calculated
over non-overlapping windows of 200 milliseconds".  :class:`TimeSeries`
stores raw (time, value) samples; :meth:`TimeSeries.window_average`
produces exactly that kind of windowed series, which the benches print
as the figures' data rows.

:func:`window_fold` is the one implementation of that reduction: the
decoder feeds it sample generators directly and
:meth:`TimeSeries.window_average` feeds it stored samples.  It adds
the floats of each window left to right from ``0.0``, the same order
:func:`ordered_sum` uses for every summary mean, so the golden run
digests are the same on every CPython version.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple


def ordered_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right, starting from ``0.0``.

    Every float total that feeds a run digest or a report goes through
    here.  Builtin ``sum()`` is not used for them because CPython 3.12
    switched it to compensated (Neumaier) addition, which rounds
    differently from 3.10/3.11; ``math.fsum`` and ``statistics.fmean``
    round differently again.  One plain ``+=`` loop gives the same
    bits on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def window_fold(
    samples: Iterable[Tuple[float, float]],
    window: float,
    start: float,
    end: float,
    mean: bool,
) -> Tuple[List[float], List[float]]:
    """Fold ``(t, v)`` samples into non-overlapping windows of ``window`` s.

    Returns ``(times, values)``: one entry per window in
    ``[start, end)``, stamped at the window start.  Each value is the
    window's mean (``mean=True``; NaN for an empty window) or its sum
    (``mean=False``; 0.0 for an empty window).  Samples before
    ``start`` or at/after ``end`` are dropped; a sample whose index
    rounds past the last window (float division at the edge) lands in
    the last one.  Samples need not be time-ordered, but within a
    window they are added in input order, like :func:`ordered_sum`.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    n_windows = max(0, int(math.ceil((end - start) / window)))
    if n_windows == 0:  # also when (end - start) / window underflows to 0.0
        return [], []
    last = n_windows - 1
    totals = [0.0] * n_windows
    counts = [0] * n_windows
    for t, value in samples:
        if t < start or t >= end:
            continue
        index = int((t - start) / window)
        if index > last:
            index = last
        totals[index] += value
        counts[index] += 1
    times = [start + i * window for i in range(n_windows)]
    if not mean:
        return times, totals
    return times, [
        total / count if count else math.nan for total, count in zip(totals, counts)
    ]


class TimeSeries:
    """An append-only sequence of (time, value) samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def add(self, time: float, value: float) -> None:
        """Append a sample.  Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"sample at {time!r} is earlier than previous {self.times[-1]!r}"
            )
        self.times.append(time)
        self.values.append(value)

    def _finite(self) -> List[float]:
        """Values excluding NaN placeholders from empty windows."""
        return [v for v in self.values if v == v]

    def mean(self) -> float:
        """Arithmetic mean of the (non-NaN) values; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return ordered_sum(values) / len(values)

    def maximum(self) -> float:
        """Largest (non-NaN) value; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return max(values)

    def minimum(self) -> float:
        """Smallest (non-NaN) value; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return min(values)

    def stdev(self) -> float:
        """Population standard deviation of the (non-NaN) values.

        A single sample has zero spread; only an empty series is NaN.
        """
        values = self._finite()
        if not values:
            return math.nan
        mu = self.mean()
        return math.sqrt(ordered_sum((v - mu) ** 2 for v in values) / len(values))

    def between(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with start <= time < end."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start <= t < end:
                out.add(t, v)
        return out

    def window_average(
        self, window: float, start: float = 0.0, end: Optional[float] = None
    ) -> "TimeSeries":
        """Windowed arithmetic mean (the paper's reporting method).

        ``end`` defaults to one window past the last sample.
        """
        if end is None:
            end = self.times[-1] + window if self.times else start
        out = TimeSeries(self.name)
        out.times, out.values = window_fold(
            zip(self.times, self.values), window, start, end, mean=True
        )
        return out

    def as_pairs(self) -> List[Tuple[float, float]]:
        """The series as a list of (time, value) tuples."""
        return list(zip(self.times, self.values))

