"""The fleet grammar: how many nodes, which slices, what workload.

A :class:`FleetSpec` describes a whole campaign declaratively — node
count, sharding group size, the slices competing for each node's UMTS
interface (with priorities), the paper's workload to run on every
node-pair, and an optional fault plan — and is a pure-data value:
:meth:`FleetSpec.to_payload` / :meth:`FleetSpec.from_payload` round-trip
it through JSON so campaign jobs stay spawn-safe (the
:mod:`repro.parallel` contract).

Sharding model: the fleet is partitioned into deterministic *groups* of
at most ``group_size`` nodes.  Each group is one independent simulation
(its own engine, Internet core, UMTS operator and controller) seeded
from ``RandomStreams(seed).fork(f"fleet.group{index}")`` — which is what
makes ``repro fleet -j N`` byte-identical at any worker count: a group's
timeline never depends on which process runs it or on any other group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Hard cap on nodes per group: the shared-kernel engine batches a
#: whole group's TTI-aligned events through one bucket walk, so a
#: single simulation comfortably interleaves hundreds of datacalls.
#: The per-node /24s are carved out of 10.64.0.0/10 below (second
#: octets 64-191, then the 10.202/16 and 10.203/16 third-octet
#: ranges) and stay clear of the operators' mobile pools
#: (10.199.0.0/16 commercial, 10.201.0.0/16 micro-cell).
MAX_GROUP_SIZE = 512

#: Workloads a fleet campaign can schedule on its node-pairs.
FLEET_KINDS = ("voip", "cbr")


class FleetSpecError(ValueError):
    """A fleet spec is malformed or names an unknown workload/fault."""


@dataclass(frozen=True)
class SliceSpec:
    """One slice competing for the UMTS interface on every node."""

    name: str
    xid: int
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise FleetSpecError(f"bad slice name {self.name!r}")
        if self.xid <= 0:
            raise FleetSpecError(f"slice xid must be positive, got {self.xid!r}")


@dataclass(frozen=True)
class NodeSpec:
    """One simulated PlanetLab node: name plus its LAN addressing.

    ``scenario`` names the scenario-grammar point shaping this node's
    radio (its cell's bearer ladder and handover schedule); empty means
    the plain operator defaults.
    """

    name: str
    address: str
    gateway: str
    prefix_len: int = 24
    scenario: str = ""


#: The default contention pair: a best-effort slice that leases first
#: and a high-priority slice arriving mid-experiment (the preemption
#: path the controller semantics are specified against).
DEFAULT_SLICES: Tuple[SliceSpec, ...] = (
    SliceSpec("fleet_best", 620, priority=0),
    SliceSpec("fleet_gold", 621, priority=10),
)


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet campaign, as pure data."""

    nodes: int
    group_size: int = 8
    slices: Tuple[SliceSpec, ...] = DEFAULT_SLICES
    kind: str = "voip"
    duration: float = 4.0
    stagger: float = 10.0
    drain: float = 3.0
    seed: int = 3
    faults: Tuple[str, ...] = ()
    preemption: bool = True
    retry_preempted: int = 1
    starvation_threshold: float = 120.0
    deadline: float = 0.0  # 0: derive from the slice/workload shape
    #: Scenario-grammar points assigned round-robin across the fleet's
    #: nodes (node ``k`` of the whole fleet draws ``scenarios[k % n]``),
    #: so one spec covers many grammar points deterministically.  Only
    #: ``home/local`` points: the fleet models no roaming or remote SIM.
    scenarios: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise FleetSpecError(f"nodes must be >= 1, got {self.nodes!r}")
        if not 2 <= self.group_size <= MAX_GROUP_SIZE:
            raise FleetSpecError(
                f"group_size must be in [2, {MAX_GROUP_SIZE}], got {self.group_size!r}"
            )
        if self.kind not in FLEET_KINDS:
            raise FleetSpecError(
                f"unknown workload {self.kind!r} (known: {', '.join(FLEET_KINDS)})"
            )
        if not 0 < self.duration < math.inf:  # also rejects NaN
            raise FleetSpecError(
                f"duration must be finite and positive, got {self.duration!r}"
            )
        if not (0 <= self.stagger < math.inf and 0 <= self.drain < math.inf):
            raise FleetSpecError("stagger and drain must be finite and >= 0")
        if self.retry_preempted < 0:
            raise FleetSpecError(
                f"retry_preempted must be >= 0, got {self.retry_preempted!r}"
            )
        if self.starvation_threshold <= 0:
            raise FleetSpecError("starvation_threshold must be positive")
        if self.deadline < 0:
            raise FleetSpecError(f"deadline must be >= 0, got {self.deadline!r}")
        if not self.slices:
            raise FleetSpecError("at least one slice is required")
        names = [s.name for s in self.slices]
        xids = [s.xid for s in self.slices]
        if len(set(names)) != len(names) or len(set(xids)) != len(xids):
            raise FleetSpecError("slice names and xids must be unique")
        # Validate the fault plan eagerly so a typo fails at spec build
        # time, not inside a worker process halfway through a campaign.
        if self.faults:
            from repro.faults.plan import FaultPlan, FaultSpecError

            try:
                FaultPlan.from_spec(*self.faults)
            except FaultSpecError as exc:
                raise FleetSpecError(f"bad fault spec: {exc}") from None
        # Same eagerness for scenario-grammar points: an unknown name
        # fails at spec build time, with the grammar's own message, and
        # so does a point whose roaming or remote-SIM dimension the
        # fleet would silently drop (its nodes use one home operator
        # and no serial faults).
        if self.scenarios:
            from repro.scenarios import ScenarioSpecError, grammar_point

            for name in self.scenarios:
                try:
                    point = grammar_point(name)
                except ScenarioSpecError as exc:
                    raise FleetSpecError(f"bad scenario: {exc}") from None
                if point.roaming.visit or point.remote_sim.tunnel:
                    raise FleetSpecError(
                        f"bad scenario: {name!r}: fleet nodes model the ladder and "
                        "handover dimensions only (use 'home/local'; roaming and "
                        "remote-SIM points run under 'repro chaos --scenario-grammar')"
                    )

    # -- sharding ---------------------------------------------------------

    def group_sizes(self) -> List[int]:
        """Node count of every group, in group order."""
        full, rest = divmod(self.nodes, self.group_size)
        sizes = [self.group_size] * full
        if rest:
            sizes.append(rest)
        return sizes

    def group_count(self) -> int:
        """How many independent simulations the campaign shards into."""
        return len(self.group_sizes())

    def node_specs(self, group_index: int) -> List[NodeSpec]:
        """The nodes of one group, with deterministic names/addresses.

        Addressing is *per group* (each group is its own simulation, so
        the same /24s recur in every group): node ``i < 128`` lives in
        ``10.(64+i).0.0/24`` — the historic layout, unchanged — and the
        fleet-scale tail ``i >= 128`` fills the ``10.202.(i-128).0/24``
        then ``10.203.(i-384).0/24`` ranges, all clear of both operator
        mobile pools.
        """
        sizes = self.group_sizes()
        if not 0 <= group_index < len(sizes):
            raise FleetSpecError(
                f"group index {group_index!r} out of range (0..{len(sizes) - 1})"
            )
        # Scenario assignment uses the node's *fleet-wide* index, so a
        # node's grammar point never depends on how the fleet happens
        # to be sharded into groups.
        base = sum(sizes[:group_index])
        specs = []
        for i in range(sizes[group_index]):
            scenario = ""
            if self.scenarios:
                scenario = self.scenarios[(base + i) % len(self.scenarios)]
            if i < 128:
                subnet = f"10.{64 + i}.0"
            elif i < 384:
                subnet = f"10.202.{i - 128}"
            else:
                subnet = f"10.203.{i - 384}"
            specs.append(
                NodeSpec(
                    name=f"fleet{group_index:04d}-n{i:02d}.onelab.eu",
                    address=f"{subnet}.100",
                    gateway=f"{subnet}.1",
                    scenario=scenario,
                )
            )
        return specs

    def pair_count(self, group_index: int) -> int:
        """Node-pairs scheduled inside one group (leftover node idles)."""
        return len(self.node_specs(group_index)) // 2

    def effective_deadline(self) -> float:
        """Simulated seconds a group run may take before it is a hang."""
        if self.deadline:
            return self.deadline
        per_attempt = 90.0 + self.duration + self.drain + self.stagger
        return 120.0 + len(self.slices) * per_attempt * (1 + self.retry_preempted)

    # -- payload round-trip ------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able dict for :class:`repro.parallel.jobs.Job` payloads."""
        return {
            "nodes": self.nodes,
            "group_size": self.group_size,
            "slices": [[s.name, s.xid, s.priority] for s in self.slices],
            "kind": self.kind,
            "duration": self.duration,
            "stagger": self.stagger,
            "drain": self.drain,
            "seed": self.seed,
            "faults": list(self.faults),
            "preemption": self.preemption,
            "retry_preempted": self.retry_preempted,
            "starvation_threshold": self.starvation_threshold,
            "deadline": self.deadline,
            "scenarios": list(self.scenarios),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FleetSpec":
        """Rebuild a spec inside a worker from its job payload."""
        return cls(
            nodes=int(payload["nodes"]),
            group_size=int(payload["group_size"]),
            slices=tuple(
                SliceSpec(name, int(xid), int(priority))
                for name, xid, priority in payload["slices"]
            ),
            kind=str(payload["kind"]),
            duration=float(payload["duration"]),
            stagger=float(payload["stagger"]),
            drain=float(payload["drain"]),
            seed=int(payload["seed"]),
            faults=tuple(payload["faults"]),
            preemption=bool(payload["preemption"]),
            retry_preempted=int(payload["retry_preempted"]),
            starvation_threshold=float(payload["starvation_threshold"]),
            deadline=float(payload["deadline"]),
            scenarios=tuple(payload.get("scenarios", ())),
        )
