"""Network interfaces.

Three kinds are modelled, matching the node hardware in the paper:

- :class:`LoopbackInterface` — ``lo``;
- :class:`EthernetInterface` — ``eth0``, the wired control/experiment
  interface every PlanetLab node has;
- :class:`PPPInterface` — ``ppp0``, the point-to-point interface pppd
  creates over the 3G modem once the UMTS connection is up.

An interface belongs to one :class:`~repro.net.stack.IPStack` and is
attached to at most one outgoing :class:`~repro.net.link.Channel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addressing import AddressLike, IPv4Address, IPv4Network, ip
from repro.net.errors import InterfaceDownError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Channel
    from repro.net.stack import IPStack


class Interface:
    """Base class for all interface kinds."""

    #: whether the interface is point-to-point (PPP) or broadcast-style.
    point_to_point = False

    def __init__(self, name: str, mtu: int = 1500):
        self.name = name
        self.mtu = mtu
        self.stack: Optional["IPStack"] = None
        self.address: Optional[IPv4Address] = None
        self.prefix_len: Optional[int] = None
        self.peer_address: Optional[IPv4Address] = None
        self.up = False
        self._channel: Optional["Channel"] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_dropped = 0
        self.rx_dropped = 0

    def configure(self, address: AddressLike, prefix_len: int) -> None:
        """Assign an address and prefix length (e.g. 143.225.229.100/24)."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"invalid prefix length {prefix_len!r}")
        self.address = ip(address)
        self.prefix_len = prefix_len
        if self.stack is not None:
            self.stack._local_ints = None

    def connected_network(self) -> Optional[IPv4Network]:
        """The directly connected prefix, or ``None`` if unconfigured."""
        if self.address is None or self.prefix_len is None:
            return None
        return IPv4Network(f"{self.address}/{self.prefix_len}", strict=False)

    def attach(self, channel: "Channel") -> None:
        """Bind the outgoing channel this interface transmits onto."""
        self._channel = channel

    @property
    def channel(self) -> Optional["Channel"]:
        """The attached outgoing channel, if any."""
        return self._channel

    def bring_up(self) -> None:
        """Administratively enable the interface."""
        self.up = True

    def bring_down(self) -> None:
        """Administratively disable the interface."""
        self.up = False

    def transmit(self, packet: Packet) -> None:
        """Send a packet out of this interface.

        Raises :class:`InterfaceDownError` when the interface is down or
        unattached; oversized packets are dropped and counted (the
        simulation does not implement IP fragmentation — nothing in the
        reproduced experiments fragments).
        """
        if not self.up or self._channel is None:
            raise InterfaceDownError(f"{self.name} is down or not attached")
        if packet.length > self.mtu:
            self.tx_dropped += 1
            return
        accepted = self._channel.send(packet)
        if accepted:
            self.tx_packets += 1
            self.tx_bytes += packet.length
        else:
            self.tx_dropped += 1

    def deliver(self, packet: Packet) -> None:
        """Receive a packet from the wire and hand it to the stack."""
        if not self.up or self.stack is None:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        self.rx_bytes += packet.length
        self.stack.receive(packet, self)

    def __repr__(self) -> str:
        addr = f"{self.address}/{self.prefix_len}" if self.address else "unconfigured"
        state = "up" if self.up else "down"
        return f"<{type(self).__name__} {self.name} {addr} {state}>"


class LoopbackInterface(Interface):
    """The loopback interface; always up, never attached to a link."""

    def __init__(self, name: str = "lo"):
        super().__init__(name, mtu=65536)
        self.configure("127.0.0.1", 8)
        self.up = True

    def transmit(self, packet: Packet) -> None:
        """Loop the packet straight back into the stack."""
        self.tx_packets += 1
        self.tx_bytes += packet.length
        self.deliver(packet)


class EthernetInterface(Interface):
    """A wired LAN interface (``eth0``)."""


class PPPInterface(Interface):
    """A point-to-point interface created by pppd (``ppp0``).

    PPP interfaces carry a local and a peer address negotiated by IPCP;
    there is no connected prefix, only a host route to the peer.
    """

    point_to_point = True

    def __init__(self, name: str = "ppp0"):
        super().__init__(name)

    def configure_p2p(self, local: AddressLike, peer: AddressLike) -> None:
        """Set the negotiated local/peer address pair."""
        self.address = ip(local)
        self.prefix_len = 32
        self.peer_address = ip(peer)
        if self.stack is not None:
            self.stack._local_ints = None

    def connected_network(self) -> Optional[IPv4Network]:
        """PPP links expose the peer as a /32 host route."""
        if self.peer_address is None:
            return None
        return IPv4Network(f"{self.peer_address}/32")
