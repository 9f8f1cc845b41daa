"""Minimal ICMP echo support.

Enough to run ``ping`` through the simulated network: stacks answer
echo requests automatically, and :class:`Pinger` provides the client
side with RTT measurement.  The D-ITG experiments measure RTT at the
application layer instead, but ping is the first thing anyone runs
after ``umts start``, so the quickstart example exercises this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.net.addressing import PROTO_ICMP, AddressLike
from repro.net.packet import ROOT_XID, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import IPStack

ECHO_REQUEST = "echo-request"
ECHO_REPLY = "echo-reply"


class IcmpEcho:
    """Payload of an ICMP echo request/reply."""

    __slots__ = ("kind", "ident", "seq", "request_sent_at")

    def __init__(self, kind: str, ident: int, seq: int, request_sent_at: float):
        self.kind = kind
        self.ident = ident
        self.seq = seq
        #: send timestamp of the original request, echoed back in the
        #: reply so the pinger computes RTT without extra state.
        self.request_sent_at = request_sent_at

    def __repr__(self) -> str:
        return f"<IcmpEcho {self.kind} id={self.ident} seq={self.seq}>"


def make_echo_reply(request: Packet, local_address) -> Packet:
    """Build the reply a stack sends for a received echo request."""
    echo: IcmpEcho = request.payload
    reply = Packet(
        dst=request.src,
        proto=PROTO_ICMP,
        src=local_address,
        size=request.size,
        payload=IcmpEcho(ECHO_REPLY, echo.ident, echo.seq, echo.request_sent_at),
        xid=ROOT_XID,
    )
    return reply


class Pinger:
    """An ICMP echo client bound to one stack.

    ``send(dst)`` emits one request; replies land in ``results`` as
    ``(seq, rtt_seconds)`` and optionally invoke a callback.
    """

    _next_ident = 1

    def __init__(
        self,
        stack: "IPStack",
        xid: int = ROOT_XID,
        on_reply: Optional[Callable[[int, float], None]] = None,
    ):
        self.stack = stack
        self.xid = xid
        self.on_reply = on_reply
        self.ident = Pinger._next_ident
        Pinger._next_ident += 1
        self.seq = 0
        self.sent = 0
        self.results: List[Tuple[int, float]] = []
        stack.register_echo_listener(self.ident, self._handle_reply)

    def send(self, dst: AddressLike) -> int:
        """Emit one echo request; returns its sequence number."""
        self.seq += 1
        packet = Packet(
            dst=dst,
            proto=PROTO_ICMP,
            size=56,  # ping's default payload
            payload=IcmpEcho(ECHO_REQUEST, self.ident, self.seq, self.stack.sim.now),
            xid=self.xid,
        )
        self.stack.send(packet)
        self.sent += 1
        return self.seq

    def _handle_reply(self, packet: Packet) -> None:
        echo: IcmpEcho = packet.payload
        rtt = self.stack.sim.now - echo.request_sent_at
        self.results.append((echo.seq, rtt))
        if self.on_reply is not None:
            self.on_reply(echo.seq, rtt)

    def close(self) -> None:
        """Stop listening for replies."""
        self.stack.unregister_echo_listener(self.ident)
