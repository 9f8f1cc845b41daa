"""Tests for repetition-summary aggregation."""


import pytest

from repro.analysis.aggregate import (
    AGGREGATED_METRICS,
    aggregate_report,
    aggregate_summaries,
)
from repro.traffic.decoder import FlowSummary


def make_summary(bitrate=72.0, rtt=0.2, loss=0.0):
    return FlowSummary(
        packets_sent=1000,
        packets_received=int(1000 * (1 - loss)),
        packets_lost=int(1000 * loss),
        loss_fraction=loss,
        mean_bitrate_kbps=bitrate,
        mean_owd=rtt / 2,
        max_owd=rtt,
        mean_jitter=0.01,
        max_jitter=0.05,
        mean_rtt=rtt,
        max_rtt=rtt * 2,
        duration=120.0,
    )


def test_aggregate_covers_all_metrics():
    aggregates = aggregate_summaries([make_summary(), make_summary()])
    assert sorted(aggregates) == sorted(AGGREGATED_METRICS)


def test_aggregate_mean_and_bounds():
    summaries = [make_summary(bitrate=70.0), make_summary(bitrate=74.0)]
    agg = aggregate_summaries(summaries)["mean_bitrate_kbps"]
    assert agg.mean == pytest.approx(72.0)
    assert agg.minimum == 70.0
    assert agg.maximum == 74.0
    assert agg.runs == 2
    assert agg.ci_low < 72.0 < agg.ci_high


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_summaries([])


def test_aggregate_constant_metric_zero_spread():
    summaries = [make_summary() for _ in range(5)]
    agg = aggregate_summaries(summaries)["mean_rtt"]
    assert agg.stdev == pytest.approx(0.0)
    assert agg.ci_low == pytest.approx(agg.ci_high)


def test_report_lines():
    lines = aggregate_report([make_summary(), make_summary(bitrate=73.0)])
    assert lines[0].startswith("metric")
    assert len(lines) == 1 + len(AGGREGATED_METRICS)
    assert any("mean_bitrate_kbps" in line for line in lines)


def test_real_repetitions_aggregate():
    from repro import PATH_ETHERNET, run_repetitions, voip_g711

    summaries = run_repetitions(
        lambda: voip_g711(duration=2.0),
        path=PATH_ETHERNET,
        repetitions=3,
        base_seed=500,
    )
    agg = aggregate_summaries(summaries)
    assert agg["loss_fraction"].maximum == 0.0
    assert agg["mean_bitrate_kbps"].mean == pytest.approx(72.0, rel=0.1)
