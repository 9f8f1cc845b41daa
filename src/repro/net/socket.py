"""UDP sockets.

A :class:`UDPSocket` is created *by a context* — either the root
context (xid 0) or a slice — and every packet it emits carries that
context id, which is precisely what VNET+ lets iptables match on.

The API mirrors the bits of the BSD socket API that the experiments
use: ``bind``, ``sendto``, a receive callback, and
``SO_BINDTODEVICE`` (the paper notes a slice may "explicitly bind to
the UMTS interface" as the alternative to registering destinations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.addressing import (
    PROTO_UDP,
    UNSPECIFIED,
    AddressLike,
    IPv4Address,
    ip,
)
from repro.net.packet import ROOT_XID, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import IPStack

#: Signature of the receive callback:
#: ``callback(payload, src_address, src_port, packet)``.
ReceiveCallback = Callable[[Any, IPv4Address, int, Packet], None]


class UDPSocket:
    """A datagram socket bound to one node's stack."""

    def __init__(self, stack: "IPStack", xid: int = ROOT_XID):
        self.stack = stack
        self.xid = xid
        self.address: IPv4Address = UNSPECIFIED
        self.port: int = 0
        self.bound_device: Optional[str] = None
        self.on_receive: Optional[ReceiveCallback] = None
        self.closed = False
        self.tx_packets = 0
        self.rx_packets = 0

    def bind(self, address: AddressLike = UNSPECIFIED, port: int = 0) -> int:
        """Bind to a local address/port; port 0 picks an ephemeral one.

        Returns the bound port.  Raises
        :class:`~repro.net.errors.AddressInUseError` on conflicts.
        """
        self._ensure_open()
        self.stack.register_socket(self, ip(address), port)
        return self.port

    def bind_to_device(self, iface_name: str) -> None:
        """SO_BINDTODEVICE: restrict routing and delivery to one interface."""
        self._ensure_open()
        self.bound_device = iface_name

    def sendto(
        self,
        payload: Any,
        size: int,
        dst: AddressLike,
        dport: int,
    ) -> Packet:
        """Send ``size`` bytes of ``payload`` to ``dst:dport``.

        The packet is stamped with this socket's context id (xid) and
        handed to the stack's local-output path.  Routing errors
        propagate to the caller, as a failing ``sendto(2)`` would.
        """
        self._ensure_open()
        if self.port == 0:
            self.bind()
        packet = Packet(
            dst=dst,
            proto=PROTO_UDP,
            src=self.address,
            size=size,
            sport=self.port,
            dport=dport,
            payload=payload,
            xid=self.xid,
        )
        packet.bound_dev = self.bound_device
        self.stack.send(packet)
        self.tx_packets += 1
        return packet

    def deliver(self, packet: Packet) -> None:
        """Called by the stack when a datagram matches this socket."""
        if self.closed:
            return
        self.rx_packets += 1
        if self.on_receive is not None:
            self.on_receive(packet.payload, packet.src, packet.sport, packet)

    def close(self) -> None:
        """Release the binding.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.stack.unregister_socket(self)

    def _ensure_open(self) -> None:
        if self.closed:
            raise OSError("socket is closed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UDPSocket {self.stack.name} {self.address}:{self.port} "
            f"xid={self.xid} dev={self.bound_device or '*'}>"
        )
