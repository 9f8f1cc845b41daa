"""One fleet group: N PlanetLab nodes, one operator, one engine.

A :class:`FleetGroup` is the many-node generalization of the two-node
:class:`~repro.testbed.scenarios.OneLabScenario`: every node gets its
own LAN tail into a shared Internet core, its own 3G card camping on
its own cell of a shared commercial operator, and a sliver of *every*
slice in the spec (each authorized for the ``umts`` vsys script) — so
the paper's one-slice-at-a-time exclusivity rule is contested on every
single node, which is exactly what the
:class:`~repro.fleet.controller.FleetController` arbitrates.

A node spec may name a scenario-grammar point; the group then shapes
that node's *radio*: its cell carries the point's bearer ladder and
its handover target cells are pre-built (the campaign schedules the
mid-call events).  The grammar's roaming and remote-SIM dimensions are
single-testbed concerns (a second operator; sim-global serial faults)
exercised by ``repro chaos --scenario-grammar``: :class:`FleetSpec`
rejects points that set them, so every point a fleet node names is
applied in full.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.modem.cards import GlobetrotterGT3G
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, UniformVariate
from repro.testbed.internet import Internet
from repro.testbed.planetlab import PlanetLabNode
from repro.testbed.scenarios import GGSN_PUBLIC_ADDR, GGSN_ROUTER_ADDR
from repro.umts.datacall import DataCall
from repro.umts.operator import commercial_operator
from repro.vserver.slice import Slice

from repro.fleet.spec import FleetSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios import ScenarioSpec


class FleetGroup:
    """The simulated testbed for one shard of the fleet."""

    def __init__(self, spec: FleetSpec, group_index: int):
        self.spec = spec
        self.group_index = group_index
        self.sim = Simulator()
        # Every group forks its own stream family from the campaign
        # seed: group timelines are independent of each other and of
        # which worker process runs them (the -j byte-identity bar).
        self.streams = RandomStreams(spec.seed).fork(f"fleet.group{group_index}")
        self.internet = Internet(self.sim)
        self.operator = commercial_operator(self.sim, self.streams.fork("operator"))
        self.operator.connect_to_internet(
            self.internet.router, GGSN_PUBLIC_ADDR, GGSN_ROUTER_ADDR
        )
        self.slices: Dict[str, Slice] = {
            s.name: Slice(s.name, s.xid) for s in spec.slices
        }
        self.nodes: List[PlanetLabNode] = []
        #: node name → the grammar point shaping its radio (if any).
        self.node_scenarios: Dict[str, "ScenarioSpec"] = {}
        #: node name → ``(at, csq, cell)`` handover targets, pre-built
        #: here so cell creation order (and names) is deterministic.
        self.node_handover_cells: Dict[str, List[Tuple[float, int, object]]] = {}
        for node_spec in spec.node_specs(group_index):
            node = PlanetLabNode(
                self.sim, node_spec.name, self.streams.fork(node_spec.name)
            )
            node.attach_lan(
                self.internet,
                node_spec.address,
                node_spec.gateway,
                prefix_len=node_spec.prefix_len,
                jitter=UniformVariate(0.0, 0.0004),
            )
            for slice_spec in spec.slices:
                node.create_sliver(self.slices[slice_spec.name])
            scenario = None
            if node_spec.scenario:
                from repro.scenarios import grammar_point

                scenario = grammar_point(node_spec.scenario)
                self.node_scenarios[node_spec.name] = scenario
            cell = self.operator.new_cell(
                rab_config=None if scenario is None else scenario.ladder.rab_config()
            )
            node.install_umts_card(GlobetrotterGT3G, cell, apn=self.operator.apn)
            if scenario is not None and scenario.handover.events:
                self.node_handover_cells[node_spec.name] = [
                    (
                        at,
                        csq,
                        self.operator.new_cell(
                            base_csq=csq,
                            rab_config=scenario.ladder.rab_config(),
                        ),
                    )
                    for at, csq in scenario.handover.events
                ]
            for slice_spec in spec.slices:
                node.authorize_umts(slice_spec.name)
            self.nodes.append(node)

    def pairs(self) -> List[Tuple[PlanetLabNode, PlanetLabNode]]:
        """Consecutive (sender, receiver) node-pairs; a leftover idles."""
        return [
            (self.nodes[i], self.nodes[i + 1])
            for i in range(0, len(self.nodes) - 1, 2)
        ]

    def call_for(self, node: PlanetLabNode) -> Optional[DataCall]:
        """The node's active data call, matched by its mobile address."""
        if node.connection is None:
            return None
        address = node.connection.address()
        if address is None:
            return None
        for call in self.operator.calls:
            if str(call.assigned_address) == str(address):
                return call
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FleetGroup g{self.group_index:04d} nodes={len(self.nodes)} "
            f"slices={sorted(self.slices)}>"
        )
