"""The canonical OneLab scenario of §3.

Two PlanetLab nodes — one at the authors' laboratory in Napoli
(UMTS-equipped, Option Globetrotter card) and one at INRIA
Sophia-Antipolis — joined by the research network, plus the UMTS
operator whose cell the Napoli card camps on.  One slice,
``unina_umts``, is instantiated on both nodes and authorized for the
``umts`` vsys script on the Napoli node.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.frontend import UmtsCommand
from repro.modem.cards import GlobetrotterGT3G
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, UniformVariate
from repro.testbed.internet import Internet
from repro.testbed.planetlab import PlanetLabNode
from repro.umts.operator import UmtsOperator, commercial_operator
from repro.vserver.slice import Slice

#: Addresses used throughout the scenario (UNINA and INRIA prefixes).
NAPOLI_PREFIX = "143.225.229.0/24"
NAPOLI_NODE_ADDR = "143.225.229.100"
NAPOLI_GW_ADDR = "143.225.229.1"
INRIA_PREFIX = "138.96.250.0/24"
INRIA_NODE_ADDR = "138.96.250.100"
INRIA_GW_ADDR = "138.96.250.1"
GGSN_PUBLIC_ADDR = "85.37.17.2"
GGSN_ROUTER_ADDR = "85.37.17.1"

DEFAULT_SLICE_NAME = "unina_umts"
DEFAULT_SLICE_XID = 510


class OneLabScenario:
    """The two-node testbed with UMTS access on the Napoli side."""

    def __init__(
        self,
        seed: int = 0,
        operator_factory: Callable[..., UmtsOperator] = commercial_operator,
        card_cls=GlobetrotterGT3G,
        slice_name: str = DEFAULT_SLICE_NAME,
        slice_xid: int = DEFAULT_SLICE_XID,
        ethernet_one_way_delay: float = 0.009,
    ):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.seed = seed
        self.internet = Internet(self.sim)
        # The UMTS operator and its radio cell.
        self.operator = operator_factory(self.sim, self.streams)
        self.cell = self.operator.new_cell()
        self.operator.connect_to_internet(
            self.internet.router, GGSN_PUBLIC_ADDR, GGSN_ROUTER_ADDR
        )
        # The two PlanetLab nodes on their GREN tails.  The WAN delay
        # is split between them; tiny jitter keeps the Ethernet path
        # realistic but visibly flatter than UMTS (as in the figures).
        self.napoli = PlanetLabNode(self.sim, "onelab1.dis.unina.it", self.streams)
        self.napoli.attach_lan(
            self.internet,
            NAPOLI_NODE_ADDR,
            NAPOLI_GW_ADDR,
            delay=ethernet_one_way_delay / 3,
            jitter=UniformVariate(0.0, 0.0004),
        )
        self.inria = PlanetLabNode(self.sim, "onelab03.inria.fr", self.streams)
        self.inria.attach_lan(
            self.internet,
            INRIA_NODE_ADDR,
            INRIA_GW_ADDR,
            delay=ethernet_one_way_delay * 2 / 3,
            jitter=UniformVariate(0.0, 0.0004),
        )
        # The experiment slice, instantiated on both nodes.
        self.slice = Slice(slice_name, slice_xid)
        self.napoli_sliver = self.napoli.create_sliver(self.slice)
        self.inria_sliver = self.inria.create_sliver(self.slice)
        # UMTS hardware on the Napoli node, authorized for the slice.
        self.napoli.install_umts_card(card_cls, self.cell, apn=self.operator.apn)
        self.napoli.authorize_umts(slice_name)

    def add_umts_node(
        self,
        name: str,
        node_address: str,
        gateway_address: str,
        prefix_len: int = 24,
    ) -> PlanetLabNode:
        """Equip another PlanetLab site with UMTS on the same operator.

        This is the paper's stated goal — "to provide every node of the
        testbed with the possibility of using a UMTS interface" — so
        scenarios can grow extra UMTS-capable nodes: each gets its own
        LAN tail, its own 3G card camping on a new cell of the same
        operator, a sliver of the experiment slice, and authorization
        for the ``umts`` vsys script.
        """
        node = PlanetLabNode(self.sim, name, self.streams.fork(name))
        node.attach_lan(
            self.internet,
            node_address,
            gateway_address,
            prefix_len=prefix_len,
            jitter=UniformVariate(0.0, 0.0004),
        )
        node.create_sliver(self.slice)
        cell = self.operator.new_cell()
        node.install_umts_card(GlobetrotterGT3G, cell, apn=self.operator.apn)
        node.authorize_umts(self.slice.name)
        return node

    @property
    def napoli_addr(self) -> str:
        """Napoli node's Ethernet address."""
        return NAPOLI_NODE_ADDR

    @property
    def inria_addr(self) -> str:
        """INRIA node's Ethernet address."""
        return INRIA_NODE_ADDR

    def umts_command(self) -> UmtsCommand:
        """The ``umts`` front-end as the slice sees it on Napoli."""
        return UmtsCommand(self.napoli_sliver)

    def umts_address(self) -> Optional[str]:
        """The operator-assigned mobile address, while up."""
        return self.napoli.connection.address()
