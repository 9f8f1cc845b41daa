"""The chaos campaign: no hangs, expected outcomes, bit-identical reruns.

The delete-one-handler proof lives here: every spec a scenario declares
must actually fire at least once, so removing the injection hook at any
point (serial, registration, dial, ppp, vsys, session) fails the
campaign instead of silently turning a chaos scenario into a happy-path
run.
"""

import pytest

from repro.faults.chaos import (
    BUILTIN_SCENARIOS,
    DEGRADED,
    RECOVERED,
    run_scenario,
    scenario_names,
)
from repro.parallel import chaos_jobs, run_campaign

SCENARIOS = {scenario.name: scenario for scenario in BUILTIN_SCENARIOS}


def _reports(names=None):
    """scenario name → report for one campaign run."""
    campaign = run_campaign(chaos_jobs(names=names))
    return {result.stable["scenario"]: result.stable for result in campaign.results}


# One campaign run shared by every per-scenario assertion below.
REPORTS = _reports()


def test_campaign_exit_code_is_zero():
    # `repro chaos` exits 0 exactly when every report is ok.
    assert all(report["ok"] for report in REPORTS.values())


def test_every_builtin_scenario_reported():
    assert sorted(REPORTS) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_expectation_and_never_hangs(name):
    report = REPORTS[name]
    assert not report["hung"], f"{name} hung: {report}"
    assert report["ok"], (
        f"{name}: expected {report['expected']}, got {report['outcome']} "
        f"(start={report['start_code']} status={report['status_lines']} "
        f"stop={report['stop_code']} clean={report['clean']})"
    )


@pytest.mark.parametrize(
    "name",
    [scenario.name for scenario in BUILTIN_SCENARIOS if scenario.specs],
)
def test_every_declared_fault_fires(name):
    """Delete-one-handler proof: each injection point consumed its spec."""
    scenario = SCENARIOS[name]
    report = REPORTS[name]
    for spec in scenario.specs:
        key = spec.split("@", 1)[0]
        assert report["fired"].get(key, 0) >= 1, (
            f"{name}: {key} never fired — injection hook missing? {report['fired']}"
        )


def test_baseline_is_fault_free_and_recovers():
    report = REPORTS["baseline"]
    assert report["outcome"] == RECOVERED
    assert report["faults_injected"] == 0
    assert report["retries"] == 0


def test_degraded_scenarios_end_clean():
    for name, report in REPORTS.items():
        if report["expected"] == DEGRADED:
            assert report["clean"], f"{name} degraded dirty: {report}"


def test_supervised_drop_heals():
    report = REPORTS["session_drop_supervised"]
    assert report["heals"] == 1
    assert report["outcome"] == RECOVERED


def test_transient_faults_cost_retries():
    assert REPORTS["registration_cme"]["retries"] == 2
    assert REPORTS["dial_no_carrier"]["retries"] == 1
    assert REPORTS["registration_denied"]["retries"] == 0  # permanent: no retry


@pytest.mark.parametrize("name", scenario_names())
def test_two_runs_are_bit_identical(name):
    rerun = run_scenario(SCENARIOS[name])
    assert rerun["digest"] == REPORTS[name]["digest"], (
        f"{name}: recovery timeline is not a pure function of the seed"
    )


def test_check_mode_flags_determinism():
    names = ["baseline", "serial_drop"]
    first, second = _reports(names), _reports(names)
    assert sorted(first) == names
    for name in names:
        assert first[name]["digest"] == second[name]["digest"]


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        chaos_jobs(names=["baseline", "nosuch"])
