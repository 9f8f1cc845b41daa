"""The GGSN — the operator's gateway into the Internet.

A forwarding :class:`~repro.net.stack.IPStack` with one public
interface (``gi``, wired to the Internet by the scenario builder) and
one point-to-point interface per active session (created by the
session's server pppd).

The paper notes that "the UMTS connectivity provided by the operators
often employs firewalls or filters that do not allow to reach the
UMTS-equipped host" from outside — which is why the node keeps Ethernet
for control traffic.  :class:`Ggsn` reproduces that with a stateful
ingress rule: traffic toward a pool address is forwarded only when the
mobile talked to that remote endpoint recently (a conntrack-style flow
table), unless the operator runs the GGSN open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.net.addressing import IPv4Address, ip
from repro.net.stack import IPStack
from repro.netfilter.chains import HOOK_FORWARD, PacketContext, Rule
from repro.netfilter.matches import DestinationMatch, InInterfaceMatch, Match
from repro.netfilter.targets import DropTarget
from repro.sim.engine import Simulator
from repro.umts.pool import AddressPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class EstablishedFlowMatch(Match):
    """Matches inbound packets belonging to a mobile-initiated flow."""

    def __init__(self, ggsn: "Ggsn", invert: bool = False):
        super().__init__(invert)
        self.ggsn = ggsn

    def matches(self, ctx: PacketContext) -> bool:
        """Inbound on a recent mobile-initiated flow, honouring inversion."""
        now = ctx.now if ctx.now is not None else 0.0
        return self.ggsn.is_established(ctx.packet.src, ctx.packet.dst, now) != self.invert

    def __repr__(self) -> str:
        return f"-m conntrack {self._bang()}--ctstate ESTABLISHED"


class Ggsn:
    """The gateway node of one operator."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        pool_prefix: str,
        internal_address: str,
        block_inbound: bool = True,
        conntrack_ttl: float = 300.0,
    ):
        self.sim = sim
        self.stack = IPStack(sim, name)
        self.stack.forwarding = True
        self.internal_address: IPv4Address = ip(internal_address)
        self.pool = AddressPool(pool_prefix, reserved=[internal_address])
        self.block_inbound = block_inbound
        self.conntrack_ttl = conntrack_ttl
        #: ``(mobile, remote)`` address integers -> time of the last
        #: mobile-to-remote packet.
        self._flows: Dict[Tuple[int, int], float] = {}
        self._drop_rule = None
        if block_inbound:
            # The filter sits on the Gi (Internet-facing) interface:
            # traffic arriving from outside toward a pool address is
            # dropped unless the mobile initiated the flow.  Sessions
            # between two mobiles never cross Gi and are unaffected.
            self._drop_rule = Rule(
                [
                    InInterfaceMatch("gi"),
                    DestinationMatch(pool_prefix),
                    EstablishedFlowMatch(self, invert=True),
                ],
                DropTarget(),
                comment="operator ingress filter: mobiles unreachable from outside",
            )
            self.stack.netfilter.table("filter").chain(HOOK_FORWARD).append(
                self._drop_rule
            )

    @property
    def inbound_blocked(self) -> int:
        """Packets the ingress filter has dropped so far."""
        if self._drop_rule is None:
            return 0
        return self._drop_rule.packets

    # -- conntrack-style flow table ------------------------------------

    def record_flow(self, mobile: IPv4Address, remote: IPv4Address, now: float) -> None:
        """Note that the mobile sent to ``remote`` (refreshes the entry)."""
        self._flows[(mobile._ip, remote._ip)] = now  # type: ignore[attr-defined]

    def is_established(self, remote: IPv4Address, mobile: IPv4Address, now: float) -> bool:
        """Whether inbound remote→mobile matches a recent outbound flow."""
        key = (mobile._ip, remote._ip)  # type: ignore[attr-defined]
        last = self._flows.get(key)
        if last is None:
            return False
        if now - last > self.conntrack_ttl:
            del self._flows[key]
            return False
        return True

    def expire_flows(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        stale = [k for k, t in self._flows.items() if now - t > self.conntrack_ttl]
        for key in stale:
            del self._flows[key]
        return len(stale)

    @property
    def active_flows(self) -> int:
        """Entries currently in the flow table (may include expired)."""
        return len(self._flows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Ggsn {self.stack.name} pool={self.pool.prefix}>"
