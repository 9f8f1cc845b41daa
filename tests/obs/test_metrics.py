"""Unit tests for the metrics registry: counters, gauges, histograms."""

import json
import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsMergeError, MetricsRegistry


def test_counter_increments():
    c = Counter("hits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.snapshot() == {"type": "counter", "value": 5}


def test_counter_rejects_negative_amounts():
    c = Counter("hits")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_extremes():
    g = Gauge("depth")
    g.set(3.0)
    g.set(7.0)
    g.set(1.0)
    assert g.value == 1.0
    assert g.max_value == 7.0
    assert g.min_value == 1.0
    assert g.updates == 3
    g.inc(2.0)
    g.dec(0.5)
    assert g.value == 2.5


def test_gauge_export_before_first_set():
    snapshot = Gauge("idle").snapshot()
    assert snapshot["max"] is None
    assert snapshot["min"] is None
    assert snapshot["updates"] == 0


def test_histogram_bucket_edges_are_inclusive():
    # A sample lands in the first bucket whose (inclusive) upper edge
    # is >= the value; past the last edge it is overflow.
    h = Histogram("latency", buckets=(0.1, 1.0, 10.0))
    h.observe(0.1)   # exactly on the first edge -> first bucket
    h.observe(0.05)  # below the first edge -> first bucket
    h.observe(0.2)   # between edges -> second bucket
    h.observe(1.0)   # exactly on the second edge -> second bucket
    h.observe(10.0)  # exactly on the last edge -> last bucket
    h.observe(10.1)  # past the last edge -> overflow
    assert h.counts == [2, 2, 1]
    assert h.overflow == 1
    assert h.count == 6
    assert h.max_value == 10.1
    assert h.min_value == 0.05
    assert h.mean == pytest.approx((0.1 + 0.05 + 0.2 + 1.0 + 10.0 + 10.1) / 6)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        Histogram("empty", buckets=())
    with pytest.raises(ValueError):
        Histogram("unsorted", buckets=(1.0, 0.5))


def test_histogram_mean_of_empty_is_nan():
    assert math.isnan(Histogram("empty-ish", buckets=(1.0,)).mean)


def test_histogram_export_keys_buckets_by_edge():
    h = Histogram("h", buckets=(0.5, 2.0))
    h.observe(0.4)
    snapshot = h.snapshot()
    assert snapshot["edges"] == [0.5, 2.0]
    assert snapshot["counts"] == [1, 0]
    assert snapshot["overflow"] == 0


def test_registry_get_or_create_is_stable():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")
    assert registry.names() == ["a", "b", "c"]
    assert "a" in registry
    assert len(registry) == 3


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_export_round_trips_through_json():
    registry = MetricsRegistry()
    registry.counter("reqs").inc(2)
    registry.gauge("depth").set(4.0)
    registry.histogram("lat", buckets=(1.0,)).observe(0.5)
    decoded = json.loads(json.dumps(registry.snapshot()))
    assert decoded["reqs"]["value"] == 2
    assert decoded["depth"]["max"] == 4.0
    assert decoded["lat"]["count"] == 1
    assert len(registry.summary_lines()) == 3


class TestSnapshotMerge:
    """snapshot()/merge() power the campaign runner's per-worker fold."""

    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("depth").set(2.0)
        registry.gauge("depth").set(5.0)
        hist = registry.histogram("latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(7.0)
        return registry

    def test_snapshot_merge_round_trips_exactly(self):
        original = self._populated()
        restored = MetricsRegistry().merge(original.snapshot())
        assert restored.snapshot() == original.snapshot()

    def test_snapshot_survives_json(self):
        snap = self._populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_adds_without_double_counting(self):
        a, b = self._populated(), self._populated()
        merged = MetricsRegistry()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.counter("jobs").value == 6
        hist = merged.histogram("latency")
        assert hist.count == 6
        assert hist.overflow == 2
        assert hist.total == a.histogram("latency").total * 2
        gauge = merged.gauge("depth")
        assert gauge.updates == 4
        assert gauge.max_value == 5.0
        assert gauge.min_value == 2.0

    def test_merge_is_disjoint_union_for_distinct_names(self):
        left = MetricsRegistry()
        left.counter("left.only").inc()
        right = MetricsRegistry()
        right.counter("right.only").inc(2)
        merged = MetricsRegistry().merge(left.snapshot()).merge(right.snapshot())
        assert merged.names() == ["left.only", "right.only"]
        assert merged.counter("right.only").value == 2

    def test_merge_ignores_untouched_gauge(self):
        src = MetricsRegistry()
        src.gauge("idle")  # created, never set
        merged = MetricsRegistry().merge(src.snapshot())
        assert merged.gauge("idle").updates == 0
        assert merged.snapshot() == src.snapshot()

    def test_merge_empty_snapshot_is_a_noop(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.merge({})
        assert registry.snapshot() == before

    def test_merge_into_empty_registry_equals_the_donor(self):
        donor = self._populated()
        assert MetricsRegistry().merge(donor.snapshot()).snapshot() == donor.snapshot()

    def test_merge_rejects_histogram_edge_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1.0, 5.0)).observe(1.5)
        with pytest.raises(MetricsMergeError, match="bucket mismatch"):
            b.merge(a.snapshot())

    def test_merge_rejects_unknown_type(self):
        with pytest.raises(MetricsMergeError, match="unknown type"):
            MetricsRegistry().merge({"x": {"type": "summary"}})

    def test_merge_error_is_a_value_error(self):
        # Callers that predate the typed error still catch it.
        assert issubclass(MetricsMergeError, ValueError)

    def test_gauge_merge_guards_none_extremes_both_ways(self):
        touched = MetricsRegistry()
        touched.gauge("depth").set(4.0)
        untouched = MetricsRegistry()
        untouched.gauge("depth")  # created, never set: extremes are None
        forward = MetricsRegistry().merge(touched.snapshot())
        forward.merge(untouched.snapshot())
        assert forward.gauge("depth").max_value == 4.0
        assert forward.gauge("depth").min_value == 4.0
        backward = MetricsRegistry().merge(untouched.snapshot())
        backward.merge(touched.snapshot())
        assert backward.gauge("depth").max_value == 4.0
        assert backward.gauge("depth").updates == 1

    def test_histogram_merge_guards_none_extremes(self):
        empty = MetricsRegistry()
        empty.histogram("lat", buckets=(1.0,))
        full = MetricsRegistry()
        full.histogram("lat", buckets=(1.0,)).observe(0.5)
        merged = MetricsRegistry().merge(full.snapshot()).merge(empty.snapshot())
        assert merged.histogram("lat").max_value == 0.5
        assert merged.histogram("lat").count == 1

    def test_merge_rejects_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("m")
        donor = MetricsRegistry()
        donor.gauge("m").set(1.0)
        with pytest.raises(TypeError):
            registry.merge(donor.snapshot())
