"""The packet model.

A :class:`Packet` is a simulated IPv4 datagram.  On top of the familiar
header fields it carries two pieces of PlanetLab-specific metadata that
the paper's mechanism depends on:

``mark``
    the netfilter *fwmark*, set by an ``iptables -j MARK`` rule and
    consumed by an ``ip rule fwmark ... lookup <table>`` policy rule;

``xid``
    the VServer context id of the slice whose socket generated the
    packet.  PlanetLab's VNET+ subsystem exposes exactly this to
    iptables, and the paper's marking rule matches on it.

Sizes are in bytes.  ``size`` is the caller-supplied payload length;
``length`` adds the IP and transport headers, and is what links use for
serialization time and queue occupancy.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.net.addressing import (
    PROTO_ICMP,
    PROTO_UDP,
    UNSPECIFIED,
    AddressLike,
    IPv4Address,
    ip,
    proto_name,
)

IP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
ICMP_HEADER_SIZE = 8

#: Context id meaning "generated by the root context" (VServer xid 0).
ROOT_XID = 0

_packet_ids = itertools.count(1)


class Packet:
    """A simulated IPv4 datagram.

    Packets are mutable while traversing a node (TTL decrement, mark,
    source selection) but are never shared between concurrently
    in-flight copies: senders create one packet per transmission.
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "proto",
        "ttl",
        "size",
        "length",
        "sport",
        "dport",
        "payload",
        "mark",
        "xid",
        "sent_at",
        "bound_dev",
    )

    def __init__(
        self,
        dst: AddressLike,
        proto: int = PROTO_UDP,
        src: AddressLike = UNSPECIFIED,
        size: int = 0,
        sport: int = 0,
        dport: int = 0,
        payload: Any = None,
        ttl: int = 64,
        xid: int = ROOT_XID,
    ):
        if size < 0:
            raise ValueError(f"payload size must be non-negative, got {size!r}")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl!r}")
        self.uid = next(_packet_ids)
        # Parse only strings: the per-packet callers pass parsed addresses.
        self.src: IPv4Address = src if isinstance(src, IPv4Address) else ip(src)
        self.dst: IPv4Address = dst if isinstance(dst, IPv4Address) else ip(dst)
        self.proto = proto
        self.ttl = ttl
        self.size = size
        #: on-the-wire length in bytes including IP+transport headers.
        #: Computed once: nothing changes ``size`` or ``proto`` later.
        if proto == PROTO_UDP:
            self.length = IP_HEADER_SIZE + UDP_HEADER_SIZE + size
        elif proto == PROTO_ICMP:
            self.length = IP_HEADER_SIZE + ICMP_HEADER_SIZE + size
        else:
            self.length = IP_HEADER_SIZE + size
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.mark = 0
        self.xid = xid
        #: simulation time the packet left the sending socket; filled by
        #: the stack so receivers can compute one-way delay exactly.
        self.sent_at: Optional[float] = None
        #: the device a bound socket pins the packet to (``SO_BINDTODEVICE``);
        #: the stack's route lookup honours it.
        self.bound_dev: Optional[str] = None

    def copy(self) -> "Packet":
        """A deep-enough copy with a fresh uid (payload shared)."""
        twin = Packet(
            dst=self.dst,
            proto=self.proto,
            src=self.src,
            size=self.size,
            sport=self.sport,
            dport=self.dport,
            payload=self.payload,
            ttl=self.ttl,
            xid=self.xid,
        )
        twin.mark = self.mark
        twin.sent_at = self.sent_at
        twin.bound_dev = self.bound_dev
        return twin

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.uid} {proto_name(self.proto)} "
            f"{self.src}:{self.sport} -> {self.dst}:{self.dport} "
            f"len={self.length} mark={self.mark:#x} xid={self.xid}>"
        )
