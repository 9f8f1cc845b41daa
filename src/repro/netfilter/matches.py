"""Rule matches.

Every match supports inversion (iptables ``!``): its one predicate,
:meth:`Match.matches`, tests the condition and applies the inversion
in the same expression.  Address prefixes are compared as integers.
The :class:`XidMatch` models the VNET+ extension PlanetLab added so
iptables can select packets by the VServer context (slice) that
generated them — the feature §2.3 of the paper builds on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.net.addressing import IPv4Address, IPv4Network, NetworkLike, network, prefix_ints

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netfilter.chains import PacketContext


class Match:
    """Base class: a predicate over (packet, hook context)."""

    def __init__(self, invert: bool = False):
        self.invert = bool(invert)

    def matches(self, ctx: "PacketContext") -> bool:
        """Whether the packet passes: the condition ``!= self.invert``."""
        raise NotImplementedError

    def _bang(self) -> str:
        return "! " if self.invert else ""


class ProtocolMatch(Match):
    """``-p udp`` etc. (by protocol number)."""

    def __init__(self, proto: int, invert: bool = False):
        super().__init__(invert)
        self.proto = proto

    def matches(self, ctx: "PacketContext") -> bool:
        """Same protocol number, honouring inversion."""
        return (ctx.packet.proto == self.proto) != self.invert

    def __repr__(self) -> str:
        return f"{self._bang()}-p {self.proto}"


class _PrefixMatch(Match):
    """A ``-s``/``-d`` prefix held as integers.

    A parsed :class:`IPv4Address` is taken as its ``/32`` without
    building an :class:`IPv4Network`; ``prefix`` builds one on demand.
    """

    _option = ""

    def __init__(self, prefix: Union[NetworkLike, IPv4Address], invert: bool = False):
        super().__init__(invert)
        if isinstance(prefix, IPv4Address):
            self._net: int = prefix._ip  # type: ignore[attr-defined]
            self._mask, self._len = 0xFFFFFFFF, 32
        else:
            self._net, self._mask, self._len = prefix_ints(network(prefix))

    @property
    def prefix(self) -> IPv4Network:
        """The matched prefix as an :class:`IPv4Network`."""
        return IPv4Network((self._net, self._len))

    def __repr__(self) -> str:
        return f"{self._bang()}{self._option} {IPv4Address(self._net)}/{self._len}"


class SourceMatch(_PrefixMatch):
    """``-s <prefix>``."""

    _option = "-s"

    def matches(self, ctx: "PacketContext") -> bool:
        """Source inside the prefix, honouring inversion."""
        inside = ctx.packet.src._ip & self._mask == self._net  # type: ignore[attr-defined]
        return inside != self.invert


class DestinationMatch(_PrefixMatch):
    """``-d <prefix>``."""

    _option = "-d"

    def matches(self, ctx: "PacketContext") -> bool:
        """Destination inside the prefix, honouring inversion."""
        inside = ctx.packet.dst._ip & self._mask == self._net  # type: ignore[attr-defined]
        return inside != self.invert


class InInterfaceMatch(Match):
    """``-i <iface>`` (valid in PREROUTING/INPUT/FORWARD)."""

    def __init__(self, name: str, invert: bool = False):
        super().__init__(invert)
        self.name = name

    def matches(self, ctx: "PacketContext") -> bool:
        """Arrived on the interface, honouring inversion."""
        return (ctx.in_iface == self.name) != self.invert

    def __repr__(self) -> str:
        return f"{self._bang()}-i {self.name}"


class OutInterfaceMatch(Match):
    """``-o <iface>`` (valid in OUTPUT/FORWARD/POSTROUTING)."""

    def __init__(self, name: str, invert: bool = False):
        super().__init__(invert)
        self.name = name

    def matches(self, ctx: "PacketContext") -> bool:
        """Leaves by the interface, honouring inversion."""
        return (ctx.out_iface == self.name) != self.invert

    def __repr__(self) -> str:
        return f"{self._bang()}-o {self.name}"


class MarkMatch(Match):
    """``-m mark --mark value[/mask]``."""

    def __init__(self, mark: int, mask: int = 0xFFFFFFFF, invert: bool = False):
        super().__init__(invert)
        self.mark = mark
        self.mask = mask

    def matches(self, ctx: "PacketContext") -> bool:
        """Mark equal under the mask, honouring inversion."""
        return ((ctx.packet.mark & self.mask) == (self.mark & self.mask)) != self.invert

    def __repr__(self) -> str:
        return f"-m mark {self._bang()}--mark {self.mark:#x}/{self.mask:#x}"


class XidMatch(Match):
    """``-m xid --xid N`` — the VNET+ slice-context match.

    Matches packets whose generating socket belonged to VServer context
    ``xid``.  Root-context packets have xid 0.
    """

    def __init__(self, xid: int, invert: bool = False):
        super().__init__(invert)
        self.xid = xid

    def matches(self, ctx: "PacketContext") -> bool:
        """Sent by the context, honouring inversion."""
        return (ctx.packet.xid == self.xid) != self.invert

    def __repr__(self) -> str:
        return f"-m xid {self._bang()}--xid {self.xid}"


class SportMatch(Match):
    """``--sport N``."""

    def __init__(self, port: int, invert: bool = False):
        super().__init__(invert)
        self.port = port

    def matches(self, ctx: "PacketContext") -> bool:
        """Same source port, honouring inversion."""
        return (ctx.packet.sport == self.port) != self.invert

    def __repr__(self) -> str:
        return f"{self._bang()}--sport {self.port}"


class DportMatch(Match):
    """``--dport N``."""

    def __init__(self, port: int, invert: bool = False):
        super().__init__(invert)
        self.port = port

    def matches(self, ctx: "PacketContext") -> bool:
        """Same destination port, honouring inversion."""
        return (ctx.packet.dport == self.port) != self.invert

    def __repr__(self) -> str:
        return f"{self._bang()}--dport {self.port}"
