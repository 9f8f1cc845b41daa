"""OpenMetrics export: deterministic bytes, volatile exclusion."""

import math

import pytest

from repro.obs import MetricsRegistry, render_openmetrics
from repro.obs.exporter import format_value, is_volatile, openmetrics_name


def _populated() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("umts.cmd.start").inc(3)
    registry.gauge("engine.queue_depth").set(2.0)
    registry.gauge("engine.queue_depth").set(7.0)
    hist = registry.histogram("vsys.latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(9.0)
    registry.histogram("engine.dispatch_wall_seconds", buckets=(1.0,)).observe(0.5)
    return registry


def test_exposition_shape_and_content():
    text = render_openmetrics(_populated())
    assert text == (
        "# TYPE repro_engine_queue_depth gauge\n"
        "repro_engine_queue_depth 7\n"
        "repro_engine_queue_depth_max 7\n"
        "repro_engine_queue_depth_min 2\n"
        "# TYPE repro_umts_cmd_start counter\n"
        "repro_umts_cmd_start_total 3\n"
        "# TYPE repro_vsys_latency histogram\n"
        'repro_vsys_latency_bucket{le="0.1"} 1\n'
        'repro_vsys_latency_bucket{le="1"} 2\n'
        'repro_vsys_latency_bucket{le="+Inf"} 3\n'
        "repro_vsys_latency_count 3\n"
        "repro_vsys_latency_sum 9.55\n"
        "# EOF\n"
    )


def test_wall_clock_families_are_dropped_by_default():
    registry = _populated()
    assert "dispatch_wall" not in render_openmetrics(registry)
    assert "repro_engine_dispatch_wall_seconds" in render_openmetrics(
        registry, include_volatile=True
    )


def test_snapshot_dict_renders_identically_to_the_registry():
    registry = _populated()
    assert render_openmetrics(registry.snapshot()) == render_openmetrics(registry)


def test_double_render_is_byte_identical():
    registry = _populated()
    assert render_openmetrics(registry) == render_openmetrics(registry)


def test_merged_registries_render_like_one_big_registry():
    # The campaign path: per-worker snapshots folded, then exported.
    merged = MetricsRegistry()
    merged.merge(_populated().snapshot())
    merged.merge(_populated().snapshot())
    direct = MetricsRegistry()
    direct.counter("umts.cmd.start").inc(6)
    direct.gauge("engine.queue_depth").set(2.0)
    direct.gauge("engine.queue_depth").set(7.0)
    hist = direct.histogram("vsys.latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 9.0) * 2:
        hist.observe(value)
    text = render_openmetrics(merged)
    assert "repro_umts_cmd_start_total 6" in text
    assert 'repro_vsys_latency_bucket{le="+Inf"} 6' in text
    assert text == render_openmetrics(direct)


def test_unknown_family_type_is_an_error():
    with pytest.raises(ValueError, match="unknown type"):
        render_openmetrics({"x": {"type": "summary"}})


def test_empty_registry_is_just_eof():
    assert render_openmetrics(MetricsRegistry()) == "# EOF\n"


class TestNameMapping:
    def test_dots_become_underscores_with_namespace(self):
        assert openmetrics_name("umts.cmd.start") == "repro_umts_cmd_start"

    def test_hostile_characters_are_flattened(self):
        name = openmetrics_name("weird-name with spaces")
        assert name.startswith("repro_")
        assert " " not in name and "-" not in name

    def test_volatility_is_segment_aware(self):
        assert is_volatile("engine.dispatch_wall_seconds")
        assert is_volatile("vsys.rpc_wall_seconds")
        assert is_volatile("wall.clock")
        assert not is_volatile("netfilter.firewall_rules")


class TestFormatValue:
    def test_integers_and_integral_floats_have_no_point(self):
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"

    def test_floats_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert float(format_value(1 / 3)) == 1 / 3

    def test_specials(self):
        assert format_value(math.nan) == "NaN"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(True) == "1"
