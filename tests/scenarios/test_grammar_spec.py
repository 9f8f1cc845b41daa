"""The spec layer: validation and enumeration."""

import pytest

from repro.scenarios import (
    DIMENSIONS,
    HANDOVERS,
    LADDERS,
    RAT_ORDER,
    RAT_RATES,
    REMOTE_SIM,
    ROAMING,
    HandoverSpec,
    RateLadderSpec,
    RemoteSimSpec,
    ScenarioSpec,
    ScenarioSpecError,
    enumerate_grammar,
    grammar_point,
    point_name,
    point_names,
    signal_grade_cap,
)

# -- dimension specs ---------------------------------------------------------


def test_rat_rates_ascending():
    rates = [RAT_RATES[rat] for rat in RAT_ORDER]
    assert rates == sorted(rates)
    assert RAT_ORDER == ("gprs", "edge", "umts", "hsdpa")


def test_ladder_rejects_unknown_and_misordered_rats():
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("lte",))
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("umts", "gprs"))
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("umts", "umts"))
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=())


def test_ladder_rejects_bad_indices_and_schedules():
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("gprs", "umts"), initial=2)
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("gprs", "umts"), moves=((10.0, 5),))
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("gprs", "umts"), moves=((10.0, 1), (10.0, 0)))
    with pytest.raises(ScenarioSpecError):
        RateLadderSpec(rats=("gprs", "umts"), moves=((0.0, 1),))


def test_ladder_rab_config_realizes_rates():
    ladder = RateLadderSpec(rats=("gprs", "edge", "hsdpa"), initial=1)
    config = ladder.rab_config()
    assert config.grades == list(ladder.rates)
    assert config.initial_grade_index == 1
    assert config.adaptation_enabled is False


def test_handover_rejects_bad_csq():
    with pytest.raises(ScenarioSpecError):
        HandoverSpec(events=((10.0, 32),))
    with pytest.raises(ScenarioSpecError):
        HandoverSpec(events=((10.0, -1),))


def test_remote_sim_validation_and_fault_specs():
    with pytest.raises(ScenarioSpecError):
        RemoteSimSpec(latency=0.5)  # latency without tunnel
    with pytest.raises(ScenarioSpecError):
        RemoteSimSpec(tunnel=True, latency=-1.0)
    assert RemoteSimSpec().fault_specs() == ()
    specs = RemoteSimSpec(tunnel=True, latency=0.25, loss_count=2).fault_specs()
    assert specs == (
        "serial:at_drop@t=0,count=2",
        "serial:latency@t=0,delay=0.25",
    )


def test_scenario_spec_validation():
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="")
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="x", hold=0.0)
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="x", hold=60.0, deadline=60.0)


# -- the grammar registry ----------------------------------------------------


def test_grammar_is_the_full_cross_product():
    names = point_names()
    expected = len(LADDERS) * len(HANDOVERS) * len(ROAMING) * len(REMOTE_SIM)
    assert len(names) == expected == 36
    assert len(set(names)) == len(names)
    specs = enumerate_grammar()
    assert [spec.name for spec in specs] == names


def test_enumeration_order_is_frozen():
    # Digests derived from enumeration order depend on this exact
    # sequence; reordering a catalog is a digest-breaking change.
    names = point_names()
    assert names[0] == "r99/none/home/local"
    assert names[-1] == "collapse/recover/visit/tunnel"
    assert names.index("climb/fade/visit/tunnel") == 19


def test_grammar_point_resolves_and_rejects():
    spec = grammar_point("climb/fade/visit/tunnel")
    assert spec.ladder is LADDERS["climb"]
    assert spec.handover is HANDOVERS["fade"]
    assert spec.roaming.visit is True
    assert spec.remote_sim.tunnel is True
    with pytest.raises(ScenarioSpecError):
        grammar_point("climb/fade/visit")
    with pytest.raises(ScenarioSpecError):
        grammar_point("climb/blizzard/visit/tunnel")
    assert point_name("r99", "none", "home", "local") == "r99/none/home/local"
    assert DIMENSIONS == ("ladder", "handover", "roaming", "sim")


# -- signal mapping ----------------------------------------------------------


def test_signal_grade_cap_monotone_and_clamped():
    for count in (1, 2, 4):
        caps = [signal_grade_cap(csq, count) for csq in range(32)]
        assert caps == sorted(caps)  # monotone in CSQ
        assert all(0 <= cap < count for cap in caps)
    # Calibration: a fringe cell pins GPRS, a strong one allows HSDPA.
    assert signal_grade_cap(7, 4) == 0
    assert signal_grade_cap(24, 4) == 3
