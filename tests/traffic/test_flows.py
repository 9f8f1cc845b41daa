"""Unit tests for flow specifications."""

import math

import pytest

from repro.traffic.flows import FlowSpec, cbr, voip_g711
from repro.sim.rng import ConstantVariate


def test_voip_spec_is_the_papers():
    spec = voip_g711()
    assert spec.expected_packet_rate() == pytest.approx(100.0)
    assert spec.expected_bitrate() == pytest.approx(72_000.0)
    assert spec.duration == 120.0
    assert spec.meter == "rtt"


def test_cbr_default_is_the_papers_1mbps():
    spec = cbr()
    assert spec.expected_packet_rate() == pytest.approx(122.07, rel=0.01)
    assert spec.expected_bitrate() == pytest.approx(1_000_000.0)
    assert spec.ps.mean() == 1024


def test_cbr_custom_rate():
    spec = cbr(rate_bps=500_000.0, packet_size=500)
    assert spec.expected_bitrate() == pytest.approx(500_000.0)
    assert spec.expected_packet_rate() == pytest.approx(125.0)


def test_invalid_specs_rejected():
    for duration in (0, math.nan, math.inf):
        with pytest.raises(ValueError):
            FlowSpec(ConstantVariate(0.01), ConstantVariate(100), duration=duration)
    with pytest.raises(ValueError):
        FlowSpec(ConstantVariate(0.01), ConstantVariate(100), meter="telepathy")
    with pytest.raises(ValueError):
        cbr(rate_bps=0)
