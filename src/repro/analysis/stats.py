"""Summary statistics over plain value sequences.

NaN values (empty-window placeholders from
:meth:`~repro.sim.monitor.TimeSeries.window_average`) are skipped
everywhere, so series can be fed in directly.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.sim.monitor import ordered_sum


def _finite(values: Sequence[float]) -> List[float]:
    return [v for v in values if v == v and not math.isinf(v)]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of the finite values (NaN when none)."""
    finite = _finite(values)
    if not finite:
        return math.nan
    return ordered_sum(finite) / len(finite)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation of the finite values."""
    finite = _finite(values)
    if len(finite) < 2:
        return math.nan
    mu = mean(finite)
    return math.sqrt(ordered_sum((v - mu) ** 2 for v in finite) / len(finite))


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    finite = sorted(_finite(values))
    if not finite:
        return math.nan
    if len(finite) == 1:
        return finite[0]
    rank = (q / 100.0) * (len(finite) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return finite[low]
    fraction = rank - low
    # lo + f*(hi-lo) rather than lo*(1-f) + hi*f: the weighted form can
    # underflow subnormals to 0.0, breaking percentile monotonicity.
    return finite[low] + fraction * (finite[high] - finite[low])


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def confidence_interval_95(values: Sequence[float]) -> Tuple[float, float]:
    """A normal-approximation 95% CI for the mean.

    Fine for the bench's n=20 repetition summaries; returns
    (NaN, NaN) for fewer than 2 finite values.
    """
    finite = _finite(values)
    if len(finite) < 2:
        return (math.nan, math.nan)
    mu = mean(finite)
    # Sample stdev (n-1) for the standard error.
    variance = ordered_sum((v - mu) ** 2 for v in finite) / (len(finite) - 1)
    half_width = 1.96 * math.sqrt(variance / len(finite))
    return (mu - half_width, mu + half_width)
