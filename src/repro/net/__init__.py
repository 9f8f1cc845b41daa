"""Network substrate: packets, interfaces, links, sockets, IP stacks.

This package is the simulated equivalent of the Linux networking the
PlanetLab node runs on.  A node is an :class:`IPStack` with interfaces
(:class:`EthernetInterface`, :class:`PPPInterface`), connected to other
stacks by :class:`Link` objects; applications talk through
:class:`UDPSocket` and :class:`Pinger`.
"""

from repro.net.addressing import (
    DEFAULT_NETWORK,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    UNSPECIFIED,
    IPv4Address,
    IPv4Network,
    ip,
    network,
)
from repro.net.errors import (
    AddressInUseError,
    InterfaceDownError,
    NetworkError,
    NoRouteError,
    PermissionDeniedError,
)
from repro.net.icmp import IcmpEcho, Pinger
from repro.net.interface import (
    EthernetInterface,
    Interface,
    LoopbackInterface,
    PPPInterface,
)
from repro.net.link import Channel, Link
from repro.net.packet import ROOT_XID, Packet
from repro.net.socket import UDPSocket
from repro.net.stack import IPStack

__all__ = [
    "AddressInUseError",
    "Channel",
    "DEFAULT_NETWORK",
    "EthernetInterface",
    "IPStack",
    "IPv4Address",
    "IPv4Network",
    "IcmpEcho",
    "Interface",
    "InterfaceDownError",
    "Link",
    "LoopbackInterface",
    "NetworkError",
    "NoRouteError",
    "PPPInterface",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PermissionDeniedError",
    "Pinger",
    "ROOT_XID",
    "UDPSocket",
    "UNSPECIFIED",
    "ip",
    "network",
]
