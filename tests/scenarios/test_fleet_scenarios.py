"""Scenario grammar threaded through the fleet: sharding-proof digests.

A fleet spec can carry grammar points; nodes draw them round-robin by
*fleet-wide* index, so what a node experiences never depends on how the
fleet is sharded into groups — which is what keeps ``-j1`` and ``-j2``
campaign digests byte-identical over the scenario space too.
"""

import json

from repro.fleet.campaign import run_group
from repro.fleet.spec import FleetSpec, FleetSpecError
from repro.parallel import fleet_jobs, run_campaign

import pytest

QUICK = dict(nodes=6, group_size=3, duration=1.0, stagger=6.0, drain=1.0)
POINTS = ("climb/fade/home/local", "r99/none/home/local")


def test_bad_scenario_fails_at_spec_build_time():
    with pytest.raises(FleetSpecError):
        FleetSpec(scenarios=("climb/blizzard/home/local",), **QUICK)
    # Fleet nodes camp on one home operator with no serial fault plan,
    # so a point needing either dimension would silently run without it.
    for point in ("climb/fade/visit/local", "r99/none/home/tunnel", "climb/fade/visit/tunnel"):
        with pytest.raises(FleetSpecError, match="ladder and handover dimensions only"):
            FleetSpec(scenarios=(POINTS[0], point), **QUICK)


def test_scenario_assignment_uses_fleet_wide_index():
    spec = FleetSpec(scenarios=POINTS, **QUICK)
    assigned = [
        node.scenario
        for group in range(spec.group_count())
        for node in spec.node_specs(group)
    ]
    # Round-robin over the whole fleet, across group boundaries.
    assert assigned == [POINTS[i % len(POINTS)] for i in range(spec.nodes)]


def test_fleet_spec_payload_round_trips_scenarios():
    spec = FleetSpec(scenarios=POINTS, **QUICK)
    payload = json.loads(json.dumps(spec.to_payload()))
    assert FleetSpec.from_payload(payload) == spec


def test_two_group_fleet_with_different_grammar_points_runs_clean():
    spec = FleetSpec(scenarios=POINTS, **QUICK)
    for group in range(spec.group_count()):
        report = run_group(spec, group)
        assert report["finished"] and report["clean"]
        # Every experiment record names the grammar point its sender ran.
        scenarios = {r["scenario"] for r in report["experiments"]}
        assert scenarios <= set(POINTS) | {""}
        assert scenarios & set(POINTS)


def test_scenarios_change_the_group_digest():
    plain = run_group(FleetSpec(**QUICK), 0)["digest"]
    shaped = run_group(FleetSpec(scenarios=POINTS, **QUICK), 0)["digest"]
    assert plain != shaped


def test_fleet_scenario_campaign_byte_identical_across_workers():
    spec = FleetSpec(scenarios=POINTS, **QUICK)
    jobs = fleet_jobs(spec)
    assert len(jobs) == 2
    serial = run_campaign(jobs, workers=1)
    sharded = run_campaign(jobs, workers=2)
    assert serial.digest == sharded.digest
    for a, b in zip(serial.results, sharded.results):
        assert a.stable == b.stable
