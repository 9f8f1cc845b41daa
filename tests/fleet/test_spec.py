"""The fleet spec grammar: validation, sharding, payload round-trip."""

import math

import pytest

from repro.fleet.spec import (
    DEFAULT_SLICES,
    FleetSpec,
    FleetSpecError,
    SliceSpec,
)


def test_group_partitioning():
    spec = FleetSpec(nodes=20, group_size=8)
    assert spec.group_sizes() == [8, 8, 4]
    assert spec.group_count() == 3
    assert FleetSpec(nodes=8, group_size=8).group_sizes() == [8]
    assert FleetSpec(nodes=9, group_size=8).group_sizes() == [8, 1]


def test_node_specs_are_deterministic_and_disjoint_from_mobile_pools():
    spec = FleetSpec(nodes=130, group_size=64)
    specs = spec.node_specs(0)
    assert len(specs) == 64
    assert specs[0].name == "fleet0000-n00.onelab.eu"
    assert specs[0].address == "10.64.0.100"
    assert specs[-1].address == "10.127.0.100"
    # Same node index -> same addressing in every group (groups are
    # independent simulations), never inside 10.199/16 or 10.201/16.
    assert spec.node_specs(1)[0].address == "10.64.0.100"
    for node in specs:
        octet = int(node.address.split(".")[1])
        assert 64 <= octet <= 127
    # Distinct subnets within a group.
    assert len({n.address for n in specs}) == len(specs)


def test_fleet_scale_group_addressing_is_disjoint_and_stable():
    """A full 512-node shared-kernel group: unique subnets, pools clear."""
    spec = FleetSpec(nodes=512, group_size=512)
    specs = spec.node_specs(0)
    assert len(specs) == 512
    # The historic second-octet layout is unchanged for i < 128 (the
    # 64-node pins 10.64.0.100 / 10.127.0.100 still hold).
    assert specs[0].address == "10.64.0.100"
    assert specs[63].address == "10.127.0.100"
    assert specs[127].address == "10.191.0.100"
    # The fleet-scale tail fills 10.202/16 then 10.203/16.
    assert specs[128].address == "10.202.0.100"
    assert specs[383].address == "10.202.255.100"
    assert specs[384].address == "10.203.0.100"
    assert specs[511].address == "10.203.127.100"
    assert specs[511].gateway == "10.203.127.1"
    # Every /24 is distinct and clear of both operator mobile pools.
    subnets = {tuple(n.address.split(".")[:3]) for n in specs}
    assert len(subnets) == 512
    for octets in subnets:
        assert octets[:2] not in {("10", "199"), ("10", "201")}
    assert len({n.name for n in specs}) == 512


def test_pair_count_leftover_node_idles():
    spec = FleetSpec(nodes=5, group_size=8)
    assert spec.pair_count(0) == 2


def test_payload_round_trip():
    spec = FleetSpec(
        nodes=17,
        group_size=4,
        kind="cbr",
        duration=2.5,
        stagger=7.0,
        seed=42,
        faults=("fleet:node_kill@t=12,node=1",),
        preemption=False,
        slices=(SliceSpec("alpha", 700, 1), SliceSpec("beta", 701, 5)),
    )
    assert FleetSpec.from_payload(spec.to_payload()) == spec


def test_validation_errors():
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=0)
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, group_size=1)
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, group_size=513)
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, kind="ftp")
    for duration in (0.0, math.nan, math.inf):
        with pytest.raises(FleetSpecError):
            FleetSpec(nodes=4, duration=duration)
    for stagger in (-1.0, math.nan, math.inf):
        with pytest.raises(FleetSpecError):
            FleetSpec(nodes=4, stagger=stagger)
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, slices=())
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, slices=(SliceSpec("a", 1), SliceSpec("a", 2)))
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, slices=(SliceSpec("a", 1), SliceSpec("b", 1)))
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, faults=("fleet:reboot@t=1",))
    with pytest.raises(FleetSpecError):
        FleetSpec(nodes=4, group_size=4, retry_preempted=-1)
    with pytest.raises(FleetSpecError):
        SliceSpec("ok", 0)


def test_group_index_bounds():
    spec = FleetSpec(nodes=8, group_size=4)
    with pytest.raises(FleetSpecError):
        spec.node_specs(2)
    with pytest.raises(FleetSpecError):
        spec.node_specs(-1)


def test_default_slices_encode_the_preemption_pair():
    assert len(DEFAULT_SLICES) == 2
    assert DEFAULT_SLICES[0].priority < DEFAULT_SLICES[1].priority


def test_effective_deadline_scales_with_slices_and_retries():
    small = FleetSpec(nodes=4, group_size=4, retry_preempted=0)
    big = FleetSpec(nodes=4, group_size=4, retry_preempted=2)
    assert big.effective_deadline() > small.effective_deadline()
    pinned = FleetSpec(nodes=4, group_size=4, deadline=500.0)
    assert pinned.effective_deadline() == 500.0
