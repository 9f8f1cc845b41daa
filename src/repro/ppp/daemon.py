"""pppd — the PPP daemon.

Runs LCP then IPCP over a frame transport and, once IPCP opens,
creates the point-to-point interface:

- in **client** mode (the PlanetLab node): ``ppp0`` with the address
  the operator assigned, plus a host route to the peer — and *no*
  default route, because the paper's design keeps the default on
  ``eth0`` and gives the UMTS table its own default instead;
- in **server** mode (the GGSN): one interface per session, with a
  host route to the mobile's assigned address so the core network can
  route downlink traffic into the right session.

The transport is anything with ``send_frame(frame)`` that calls our
:meth:`Pppd.receive_frame` for inbound frames — a direct test pipe, or
the serial→modem→radio chain in the full testbed.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import Any, Optional, Union

from repro.net.addressing import AddressLike
from repro.net.interface import PPPInterface
from repro.net.packet import Packet
from repro.net.stack import IPStack
from repro.ppp.frame import PPP_IP, PPP_IPCP, PPP_LCP, ControlPacket, PPPFrame
from repro.ppp.ipcp import IpcpClientFsm, IpcpServerFsm
from repro.ppp.lcp import LcpFsm
from repro.routing.table import Route
from repro.sim.engine import Event, Simulator
from repro.sim.process import Signal

_unit_numbers = itertools.count()


class PppError(Exception):
    """Session setup or teardown failure."""


class _TransportChannel:
    """Adapter making a pppd session look like an interface channel."""

    def __init__(self, pppd: "Pppd") -> None:
        self._pppd = pppd

    def send(self, packet: Packet) -> bool:
        if not self._pppd.is_up:
            return False
        self._pppd.transport.send_frame(PPPFrame(PPP_IP, packet))
        return True


class Pppd:
    """One PPP session endpoint (client or server)."""

    def __init__(
        self,
        sim: Simulator,
        stack: IPStack,
        transport: Any,
        role: str = "client",
        ifname: Optional[str] = None,
        local_address: Optional[AddressLike] = None,
        assign_address: Optional[AddressLike] = None,
        dns1: Optional[AddressLike] = None,
        rng: Optional[_random.Random] = None,
        request_dns: bool = False,
        echo_interval: Optional[float] = None,
    ) -> None:
        if role not in ("client", "server"):
            raise PppError(f"unknown role {role!r}")
        if role == "server" and (local_address is None or assign_address is None):
            raise PppError("server role needs local_address and assign_address")
        self.sim = sim
        self.stack = stack
        self.transport = transport
        self.role = role
        self.ifname = ifname or f"ppp{next(_unit_numbers)}"
        self.echo_interval = echo_interval
        self._echo_missed = 0
        self._echo_timer: Optional[Event] = None
        self.malformed_frames = 0
        self.iface: Optional[PPPInterface] = None
        #: fired with the interface when the session reaches data phase.
        self.up = Signal(sim, f"{self.ifname}.up")
        #: fired with a reason string when the session ends.
        self.down = Signal(sim, f"{self.ifname}.down")
        self.failed = Signal(sim, f"{self.ifname}.failed")
        self.ipcp: Union[IpcpClientFsm, IpcpServerFsm]
        self.lcp = LcpFsm(
            sim,
            self._send_lcp,
            on_up=self._lcp_up,
            on_down=self._lcp_down,
            on_fail=self._negotiation_failed,
            rng=rng,
        )
        if role == "client":
            self.ipcp = IpcpClientFsm(
                sim,
                self._send_ipcp,
                on_up=self._ipcp_up,
                on_down=self._ipcp_down,
                on_fail=self._negotiation_failed,
                request_dns=request_dns,
            )
        else:
            self.ipcp = IpcpServerFsm(
                sim,
                self._send_ipcp,
                on_up=self._ipcp_up,
                on_down=self._ipcp_down,
                on_fail=self._negotiation_failed,
                local_address=local_address,
                assign_address=assign_address,
                dns1=dns1,
            )
        if hasattr(transport, "set_receiver"):
            transport.set_receiver(self.receive_frame)

    # -- lifecycle ------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """True while the session is in the data phase."""
        return self.iface is not None and self.ipcp.is_open

    def start(self) -> None:
        """Begin LCP negotiation (the moment pppd attaches to the tty)."""
        self.lcp.open()

    def disconnect(self, reason: str = "user hangup") -> None:
        """Graceful teardown: close IPCP and LCP, remove the interface."""
        if self.ipcp.is_open:
            self.ipcp.close(reason)
        self.lcp.close(reason)
        self._teardown(reason)

    def carrier_lost(self, reason: str = "carrier lost") -> None:
        """Hard teardown without Terminate exchange (modem hangup)."""
        self.ipcp.abort(reason)
        self.lcp.abort(reason)
        self._teardown(reason)

    # -- frame I/O ---------------------------------------------------------

    def receive_frame(self, frame: PPPFrame) -> None:
        """Inbound frame from the transport."""
        if frame.protocol in (PPP_LCP, PPP_IPCP) and not isinstance(
            frame.payload, ControlPacket
        ):
            # A control frame whose payload did not survive the line.
            # Real pppd drops what fails the parse; crashing the FSMs
            # on line noise would be the un-typed failure mode.
            self.malformed_frames += 1
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    "ppp.malformed_frame", ifname=self.ifname, proto=frame.protocol
                )
            return
        if frame.protocol == PPP_LCP:
            from repro.ppp.frame import ECHO_REP

            if frame.payload.code == ECHO_REP:
                self.note_echo_reply()
            self.lcp.receive(frame.payload)
        elif frame.protocol == PPP_IPCP:
            if self.lcp.is_open:
                self.ipcp.receive(frame.payload)
        elif frame.protocol == PPP_IP:
            if self.iface is not None:
                self.iface.deliver(frame.payload)
        # Unknown protocols would elicit Protocol-Reject; ignored here.

    def _send_lcp(self, packet: ControlPacket) -> None:
        self.transport.send_frame(PPPFrame(PPP_LCP, packet))

    def _send_ipcp(self, packet: ControlPacket) -> None:
        self.transport.send_frame(PPPFrame(PPP_IPCP, packet))

    # -- FSM callbacks -------------------------------------------------------

    def _lcp_up(self) -> None:
        self.ipcp.open()

    def _ipcp_up(self) -> None:
        ipcp = self.ipcp
        if isinstance(ipcp, IpcpClientFsm):
            local = ipcp.local_address
            peer: Optional[Any] = ipcp.peer_address
        else:
            local = ipcp.local_address
            peer = ipcp.assigned_address
        if local is None or peer is None:
            self._negotiation_failed("IPCP opened without addresses")
            return
        iface = PPPInterface(self.ifname)
        iface.configure_p2p(local, peer)
        self.stack.add_interface(iface)
        iface.attach(_TransportChannel(self))
        iface.bring_up()
        self.stack.rpdb.main.add(Route(f"{peer}/32", self.ifname, src=local), replace=True)
        self.iface = iface
        if self.echo_interval is not None:
            self._arm_echo_timer()
        self.up.fire(iface)

    def _lcp_down(self, reason: str) -> None:
        # LCP leaving the data phase takes IPCP's lower layer with it;
        # abort IPCP so a later LCP re-open renegotiates the network
        # layer from scratch (and re-creates the interface).
        self.ipcp.abort(reason)
        self._teardown(reason)

    def _ipcp_down(self, reason: str) -> None:
        self._teardown(reason)

    def _negotiation_failed(self, reason: str) -> None:
        self._teardown(reason)
        self.failed.fire(reason)

    def _teardown(self, reason: str) -> None:
        if self._echo_timer is not None:
            self._echo_timer.cancel()
            self._echo_timer = None
        if self.iface is not None:
            name = self.iface.name
            self.iface = None
            if name in self.stack.interfaces:
                self.stack.remove_interface(name)
            self.down.fire(reason)

    # -- LCP echo keepalive ----------------------------------------------------

    def _arm_echo_timer(self) -> None:
        assert self.echo_interval is not None  # guarded by callers
        self._echo_timer = self.sim.schedule(self.echo_interval, self._echo_tick)

    def _echo_tick(self) -> None:
        self._echo_timer = None
        if not self.is_up:
            return
        self._echo_missed += 1
        if self._echo_missed > 4:  # pppd's lcp-echo-failure 4
            self.carrier_lost("LCP echo timeout")
            return
        from repro.ppp.frame import ECHO_REQ

        self.lcp.send_packet(
            ControlPacket(ECHO_REQ, 0, {"magic": self.lcp.options.get("magic", 0)})
        )
        self._arm_echo_timer()

    def note_echo_reply(self) -> None:
        """Reset the keepalive miss counter (called on Echo-Reply)."""
        self._echo_missed = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.is_up else "down"
        return f"<Pppd {self.role} {self.ifname} {state}>"
