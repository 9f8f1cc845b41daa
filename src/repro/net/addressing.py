"""IPv4 address helpers.

Thin wrappers over :mod:`ipaddress` so the rest of the code base can
accept either strings or already-parsed objects, plus the well-known
protocol numbers used throughout the stack.  :func:`ip` parses at the
command and configuration boundary; the per-packet paths never call
it.  They compare integers instead: an address's value read from
``IPv4Address._ip`` (what ``int()`` returns, without the call, ``==``
or ``hash``) and a prefix's from :func:`prefix_ints`.  Packets, routes
and sockets still hold :class:`IPv4Address` objects.
"""

from __future__ import annotations

import ipaddress
from typing import Tuple, Union

IPv4Address = ipaddress.IPv4Address
IPv4Network = ipaddress.IPv4Network

AddressLike = Union[str, IPv4Address]
NetworkLike = Union[str, IPv4Network]

#: IP protocol numbers (a subset of /etc/protocols).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: The unspecified address, used for not-yet-source-selected packets.
UNSPECIFIED = IPv4Address("0.0.0.0")

#: Default prefix matching everything (the `default` route target).
DEFAULT_NETWORK = IPv4Network("0.0.0.0/0")


def ip(value: AddressLike) -> IPv4Address:
    """Parse ``value`` into an :class:`IPv4Address` (idempotent)."""
    if isinstance(value, IPv4Address):
        return value
    return IPv4Address(value)


def network(value: NetworkLike) -> IPv4Network:
    """Parse ``value`` into an :class:`IPv4Network`.

    Accepts the literal ``"default"`` (as ``ip route`` does), a bare
    address (treated as a /32 host route), or CIDR notation.
    """
    if isinstance(value, IPv4Network):
        return value
    if value == "default":
        return DEFAULT_NETWORK
    if "/" not in value:
        return IPv4Network(f"{value}/32")
    return IPv4Network(value, strict=False)


def prefix_ints(prefix: IPv4Network) -> Tuple[int, int, int]:
    """``(network, netmask, prefixlen)`` of ``prefix`` as integers.

    ``addr & netmask == network`` is then the same test as
    ``addr in prefix`` for an address's integer value.
    """
    network_int: int = prefix.network_address._ip  # type: ignore[attr-defined]
    mask_int: int = prefix.netmask._ip  # type: ignore[attr-defined]
    return network_int, mask_int, prefix.prefixlen


def proto_name(proto: int) -> str:
    """Human-readable name for an IP protocol number."""
    return {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(
        proto, str(proto)
    )
