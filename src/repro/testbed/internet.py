"""A small Internet: one core router LANs and operators hang off."""

from __future__ import annotations

import random as _random
from typing import Optional

from repro.net.interface import EthernetInterface, Interface
from repro.net.link import Link
from repro.net.stack import IPStack
from repro.sim.engine import Simulator
from repro.sim.rng import Distribution


class Internet:
    """A single forwarding core node.

    One router is enough for the reproduction's topologies (the paper's
    paths traverse the GREN, which is fast and quiet — its detail does
    not drive any figure); attach points with per-link rate/delay/jitter
    model the access tails where the behaviour actually differs.
    """

    def __init__(self, sim: Simulator, name: str = "internet-core"):
        self.sim = sim
        self.router = IPStack(sim, name)
        self.router.forwarding = True
        self._attachments = 0

    def attach(
        self,
        iface: Interface,
        subnet_router_address: str,
        prefix_len: int,
        delay: float = 0.002,
        jitter: Optional[Distribution] = None,
        rng: Optional[_random.Random] = None,
        name: str = "",
    ) -> Link:
        """Wire an interface (already on some stack) to the core.

        Creates the router-side interface on the subnet, configures it
        with ``subnet_router_address`` and returns the link.
        """
        self._attachments += 1
        router_iface = self.router.add_interface(
            EthernetInterface(name or f"net{self._attachments}")
        )
        self.router.configure_interface(router_iface, subnet_router_address, prefix_len)
        return Link(
            self.sim,
            iface,
            router_iface,
            delay=delay,
            jitter=jitter,
            rng=rng,
        )
