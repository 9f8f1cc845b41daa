"""The metrics registry: counters, gauges, fixed-bucket histograms.

Components grab metrics by name from the :class:`MetricsRegistry` hung
off the simulator (``sim.metrics``); the registry is the single export
point for the analysis layer (:meth:`MetricsRegistry.snapshot`, which
campaign workers also ship to be merged).  Everything here is
observation only: no metric feeds back into simulation behaviour,
which is what keeps an attached registry from perturbing scenario
results.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram edges for simulated-time latencies (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0)
#: Default histogram edges for wall-clock dispatch costs (seconds).
WALL_BUCKETS: Tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)


class MetricsMergeError(ValueError):
    """A snapshot cannot be folded into this registry.

    Raised for incompatible histogram bucket layouts and for snapshot
    entries of unknown type — the failure modes that would otherwise
    silently mis-add counts across campaign workers.
    """


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """Lossless JSON-able state, mergeable via :meth:`merge_snapshot`."""
        return {"type": "counter", "value": self.value}

    def merge_snapshot(self, state: Dict[str, object]) -> None:
        """Fold another counter's snapshot into this one (values add)."""
        self.inc(state["value"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that goes up and down, tracking its extremes."""

    __slots__ = ("name", "value", "max_value", "min_value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        """Set the current value and fold it into the extremes."""
        self.value = value
        self.updates += 1
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge upward."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        """Adjust the gauge downward."""
        self.set(self.value - amount)

    def snapshot(self) -> Dict[str, object]:
        """Lossless JSON-able state, mergeable via :meth:`merge_snapshot`.

        Extremes are None before the first set.
        """
        return {
            "type": "gauge",
            "value": self.value,
            "max": self.max_value if self.updates else None,
            "min": self.min_value if self.updates else None,
            "updates": self.updates,
        }

    def merge_snapshot(self, state: Dict[str, object]) -> None:
        """Fold another gauge's snapshot into this one.

        Extremes and update counts combine; the merged *current* value
        takes the incoming side's (callers merge snapshots in a
        deterministic key order, so the result is reproducible).
        """
        updates = int(state["updates"])  # type: ignore[arg-type]
        if updates == 0:
            return
        self.updates += updates
        self.value = float(state["value"])  # type: ignore[arg-type]
        # A worker that recorded no samples snapshots its extremes as
        # None; guard them individually so a half-formed snapshot can
        # never clobber real extremes with a TypeError mid-fold.
        incoming_max = state["max"]
        incoming_min = state["min"]
        if incoming_max is not None and float(incoming_max) > self.max_value:  # type: ignore[arg-type]
            self.max_value = float(incoming_max)  # type: ignore[arg-type]
        if incoming_min is not None and float(incoming_min) < self.min_value:  # type: ignore[arg-type]
            self.min_value = float(incoming_min)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` are the inclusive upper edges of each bucket; a sample
    lands in the first bucket whose edge is >= the value, or in the
    implicit overflow bucket past the last edge.  Count, sum, and the
    observed min/max are tracked alongside, so means survive export.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "count", "total",
                 "max_value", "min_value")

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS):
        if not buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        edges = [float(b) for b in buckets]
        if edges != sorted(edges):
            raise ValueError(f"histogram {name!r} edges must be sorted: {edges!r}")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * len(edges)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observed samples (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    def snapshot(self) -> Dict[str, object]:
        """Lossless JSON-able state, mergeable via :meth:`merge_snapshot`.

        The raw ``edges``/``counts`` arrays let a merge verify bucket
        compatibility and add counts exactly.
        """
        return {
            "type": "histogram",
            "edges": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.total,
            "max": self.max_value if self.count else None,
            "min": self.min_value if self.count else None,
        }

    def merge_snapshot(self, state: Dict[str, object]) -> None:
        """Fold another histogram's snapshot into this one (counts add)."""
        edges = [float(e) for e in state["edges"]]  # type: ignore[union-attr]
        if edges != list(self.buckets):
            raise MetricsMergeError(
                f"histogram {self.name!r} bucket mismatch: "
                f"{edges!r} vs {list(self.buckets)!r}"
            )
        if int(state["count"]) == 0:  # type: ignore[arg-type]
            return
        for i, n in enumerate(state["counts"]):  # type: ignore[arg-type]
            self.counts[i] += int(n)
        self.overflow += int(state["overflow"])  # type: ignore[arg-type]
        self.count += int(state["count"])  # type: ignore[arg-type]
        self.total += float(state["sum"])  # type: ignore[arg-type]
        # Same None-extreme guard as the gauge: empty-worker snapshots
        # must not clobber (or crash on) real extremes.
        incoming_max = state["max"]
        incoming_min = state["min"]
        if incoming_max is not None and float(incoming_max) > self.max_value:  # type: ignore[arg-type]
            self.max_value = float(incoming_max)  # type: ignore[arg-type]
        if incoming_min is not None and float(incoming_min) < self.min_value:  # type: ignore[arg-type]
            self.min_value = float(incoming_min)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named metrics, created on first use, exportable as one dict."""

    def __init__(self):
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create the histogram ``name`` (``buckets`` only on creation)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, buckets if buckets is not None else LATENCY_BUCKETS)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a Histogram"
            )
        return metric

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {cls.__name__}"
            )
        return metric

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Lossless JSON-able state of every metric, keyed by name.

        ``MetricsRegistry().merge(r.snapshot()).snapshot()`` round-trips
        exactly; campaign workers ship these across the process boundary
        and the runner merges them into one registry.
        """
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def merge(self, state: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` into this registry (returns self).

        Each named metric is created on first sight with the snapshot's
        type, then folded additively — counters and histogram buckets
        sum, gauge extremes and update counts combine — so merging N
        disjoint worker snapshots counts every observation exactly once.
        """
        for name in sorted(state):
            entry = state[name]
            kind = entry["type"]
            if kind == "counter":
                self.counter(name).merge_snapshot(entry)
            elif kind == "gauge":
                self.gauge(name).merge_snapshot(entry)
            elif kind == "histogram":
                edges = [float(e) for e in entry["edges"]]  # type: ignore[union-attr]
                self.histogram(name, buckets=edges).merge_snapshot(entry)
            else:
                raise MetricsMergeError(f"metric {name!r} has unknown type {kind!r}")
        return self

    def summary_lines(self) -> List[str]:
        """Compact human-readable lines (what ``repro trace`` prints)."""
        lines = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                lines.append(f"{name}: {metric.value}")
            elif isinstance(metric, Gauge):
                extreme = f" (max {metric.max_value:g})" if metric.updates else ""
                lines.append(f"{name}: {metric.value:g}{extreme}")
            else:
                mean = f"{metric.mean:.6g}" if metric.count else "-"
                lines.append(f"{name}: n={metric.count} mean={mean}")
        return lines
