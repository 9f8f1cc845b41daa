"""Built-in campaign workloads: chaos, scenarios, sweeps, fleet groups.

Each entry point is a module-level function (spawn-safe by
construction) that rebuilds *everything* from its payload — the
scenario config, the seed, the duration all travel in the job, never
in process state — which is what makes a job's ``stable`` output a
pure function of the payload and therefore ``-j``-independent.  The matching ``*_jobs`` builders construct the
descriptors the CLI and the tests feed to
:func:`repro.parallel.runner.run_campaign`.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.parallel.jobs import Job, JobOutput, entry_point

# -- chaos ----------------------------------------------------------------


def chaos_jobs(names: Optional[Sequence[str]] = None, repeats: int = 1) -> List[Job]:
    """One job per (selected) built-in chaos scenario.

    ``repeats`` > 1 batches identical runs into each job — the
    campaign wall-clock benchmark uses this, and every repetition must
    reproduce the first run's digest or the job fails.
    """
    from repro.faults.chaos import BUILTIN_SCENARIOS

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    selected = list(BUILTIN_SCENARIOS)
    if names:
        known = {scenario.name: scenario for scenario in BUILTIN_SCENARIOS}
        missing = [name for name in names if name not in known]
        if missing:
            raise KeyError(
                f"unknown scenario(s): {', '.join(missing)} "
                f"(known: {', '.join(known)})"
            )
        selected = [known[name] for name in names]
    jobs = []
    for scenario in selected:
        config = asdict(scenario)
        config["specs"] = list(config["specs"])
        payload: Dict[str, Any] = {"scenario": config}
        if repeats != 1:
            payload["repeats"] = repeats
        jobs.append(Job(kind="chaos", key=f"chaos:{scenario.name}", payload=payload))
    return jobs


@entry_point("chaos")
def run_chaos_job(payload: Dict[str, Any]) -> JobOutput:
    """Run one chaos scenario (``repeats`` times) under a fresh registry."""
    from repro.faults.chaos import ChaosScenario, run_scenario

    config = dict(payload["scenario"])
    config["specs"] = tuple(config["specs"])
    scenario = ChaosScenario(**config)
    repeats = int(payload.get("repeats", 1))
    metrics = MetricsRegistry()
    report = run_scenario(scenario, metrics=metrics)
    for _ in range(repeats - 1):
        rerun = run_scenario(scenario, metrics=metrics)
        if rerun["digest"] != report["digest"]:
            raise RuntimeError(
                f"chaos scenario {scenario.name!r} did not reproduce its "
                f"digest across batched repeats"
            )
        report = rerun
    stable = dict(report)
    if repeats != 1:
        stable["campaign_repeats"] = repeats
    return JobOutput(stable=stable, metrics=metrics.snapshot())


# -- scenario grammar ------------------------------------------------------


def scenario_jobs(names: Optional[Sequence[str]] = None) -> List[Job]:
    """One job per scenario-grammar point (``repro chaos --scenario-grammar``).

    Defaults to the full enumerated grammar; explicit ``names`` are
    validated eagerly against the catalogs so a typo fails before any
    worker starts.
    """
    from repro.scenarios import grammar_point, point_names

    selected = list(names) if names else point_names()
    for name in selected:
        grammar_point(name)  # raises ScenarioSpecError on unknown points
    return [
        Job(kind="scenario", key=f"scenario:{name}", payload={"point": name})
        for name in selected
    ]


@entry_point("scenario")
def run_scenario_job(payload: Dict[str, Any]) -> JobOutput:
    """Instantiate and run one grammar point under a fresh registry."""
    from repro.scenarios import grammar_point, run_grammar_scenario

    spec = grammar_point(payload["point"])
    metrics = MetricsRegistry()
    report = run_grammar_scenario(spec, metrics=metrics)
    return JobOutput(stable=report, metrics=metrics.snapshot())


# -- fleet ----------------------------------------------------------------


def fleet_jobs(spec: Any) -> List[Job]:
    """One job per fleet group (see :mod:`repro.fleet.spec`).

    ``spec`` is a :class:`~repro.fleet.spec.FleetSpec`; the payload
    carries its JSON form plus the group index, so workers rebuild the
    whole group simulation from pure data.
    """
    payload_spec = spec.to_payload()
    return [
        Job(
            kind="fleet",
            key=f"fleet:g{index:04d}",
            payload={"spec": payload_spec, "group": index},
        )
        for index in range(spec.group_count())
    ]


@entry_point("fleet")
def run_fleet_job(payload: Dict[str, Any]) -> JobOutput:
    """Run one fleet group under a fresh registry."""
    from repro.fleet.campaign import run_group
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec.from_payload(payload["spec"])
    metrics = MetricsRegistry()
    report = run_group(spec, int(payload["group"]), metrics=metrics)
    return JobOutput(stable=report, metrics=metrics.snapshot())


# -- sweep ----------------------------------------------------------------

SWEEP_KINDS = ("voip", "cbr")


def sweep_jobs(
    kind: str,
    seeds: Sequence[int],
    paths: Sequence[str],
    duration: float,
    scenario: Optional[str] = None,
) -> List[Job]:
    """The seed × path product for one workload kind.

    ``scenario`` names a scenario-grammar point (validated eagerly);
    the sweep then runs over that grammar point's testbed — the ladder
    as the bearer config, roaming/handover/remote-SIM events armed —
    instead of the plain OneLab scenario.
    """
    if kind not in SWEEP_KINDS:
        raise KeyError(f"unknown sweep kind {kind!r} (known: {', '.join(SWEEP_KINDS)})")
    if not 0 < duration < math.inf:  # also rejects NaN
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if scenario is not None:
        from repro.scenarios import grammar_point

        grammar_point(scenario)  # raises ScenarioSpecError on unknown points
    jobs = []
    for path in paths:
        for seed in seeds:
            payload = {
                "kind": kind,
                "path": path,
                "seed": int(seed),
                "duration": float(duration),
            }
            key = f"sweep:{kind}:{path}:seed={seed:06d}"
            if scenario is not None:
                payload["scenario"] = scenario
                key += f":scenario={scenario}"
            jobs.append(Job(kind="sweep", key=key, payload=payload))
    return jobs


@entry_point("sweep")
def run_sweep_job(payload: Dict[str, Any]) -> JobOutput:
    """One full characterization run; summary stats plus output digest."""
    from repro import cbr, run_characterization, voip_g711
    from repro.bench.determinism import run_digest
    from repro.testbed.scenarios import OneLabScenario

    spec_fn = {"voip": voip_g711, "cbr": cbr}[payload["kind"]]
    # Build the scenario explicitly so a fresh registry rides along;
    # instrumentation never changes dispatch order, so the digest is
    # the same as an unmetered run.
    metrics = MetricsRegistry()
    point = payload.get("scenario")
    if point is not None:
        from repro.scenarios import GrammarHarness, grammar_point

        harness = GrammarHarness(
            grammar_point(point), seed=payload["seed"], metrics=metrics
        )
        harness.arm()
        scenario = harness.testbed
    else:
        scenario = OneLabScenario(seed=payload["seed"])
        scenario.sim.metrics = metrics
    result = run_characterization(
        spec_fn(duration=payload["duration"]),
        path=payload["path"],
        seed=payload["seed"],
        scenario=scenario,
    )
    summary = result.summary
    stable = {
        "kind": payload["kind"],
        "path": payload["path"],
        "seed": payload["seed"],
        "duration": payload["duration"],
        "digest": run_digest(result),
        **({"scenario": point} if point is not None else {}),
        "summary": {
            "packets_sent": summary.packets_sent,
            "packets_received": summary.packets_received,
            "loss_fraction": summary.loss_fraction,
            "bitrate_kbps": summary.mean_bitrate_kbps,
            "mean_jitter_s": summary.mean_jitter,
            "mean_rtt_s": summary.mean_rtt,
            "max_rtt_s": summary.max_rtt,
        },
    }
    return JobOutput(stable=stable, metrics=metrics.snapshot())
