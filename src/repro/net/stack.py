"""The per-node IP stack.

One :class:`IPStack` models a host's (or router's) layer-3 machinery:
interfaces, the routing policy database, netfilter hooks, UDP socket
demultiplexing and ICMP echo.  The hook/routing order follows Linux for
the paths the paper exercises:

Local output
    ``mangle OUTPUT`` (may set the fwmark) → policy routing (uses the
    mark — this is why the MARK-then-``ip rule fwmark`` trick works) →
    source selection → ``filter OUTPUT`` (sees the output interface —
    where the paper's drop rule sits) → ``mangle POSTROUTING`` →
    transmit.

Input
    ``mangle PREROUTING`` → is it for us? → ``filter INPUT`` → deliver;
    otherwise, with forwarding enabled: TTL decrement →
    ``filter FORWARD`` → routing → ``mangle POSTROUTING`` → transmit.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from repro.net.addressing import (
    PROTO_ICMP,
    PROTO_UDP,
    UNSPECIFIED,
    AddressLike,
    IPv4Address,
    ip,
)
from repro.net.errors import (
    AddressInUseError,
    InterfaceDownError,
    NoRouteError,
)
from repro.net.icmp import ECHO_REPLY, ECHO_REQUEST, IcmpEcho, make_echo_reply
from repro.net.interface import Interface, LoopbackInterface
from repro.net.packet import Packet
from repro.net.socket import UDPSocket
from repro.netfilter.chains import (
    HOOK_FORWARD,
    HOOK_INPUT,
    HOOK_OUTPUT,
    HOOK_POSTROUTING,
    HOOK_PREROUTING,
    Netfilter,
)
from repro.netfilter.iptables import Iptables
from repro.routing.iproute2 import IpRoute2
from repro.routing.rpdb import RoutingPolicyDatabase
from repro.routing.table import Route
from repro.sim.engine import Simulator

EPHEMERAL_PORT_START = 32768
EPHEMERAL_PORT_END = 61000


class IPStack:
    """A host/router network stack."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self.rpdb = RoutingPolicyDatabase()
        self.netfilter = Netfilter()
        #: command facades mirroring the tools the back-end runs.
        self.ip = IpRoute2(self.rpdb)
        self.iptables = Iptables(self.netfilter)
        self.forwarding = False
        self._udp_ports: Dict[int, List[UDPSocket]] = {}
        self._bwlimiters: Dict[str, object] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        self._echo_listeners: Dict[int, Callable[[Packet], None]] = {}
        #: integer values of the interface addresses, built on demand by
        #: :meth:`_local_addresses`; ``None`` once an address changes.
        self._local_ints: Optional[FrozenSet[int]] = None
        # counters
        self.sent_packets = 0
        self.delivered_packets = 0
        self.forwarded_packets = 0
        self.dropped_no_route = 0
        self.dropped_filter = 0
        self.dropped_ttl = 0
        self.dropped_no_socket = 0
        self.dropped_iface_down = 0
        self.add_interface(LoopbackInterface())

    # -- interfaces ----------------------------------------------------

    def add_interface(self, iface: Interface) -> Interface:
        """Register an interface under its name."""
        if iface.name in self.interfaces:
            raise ValueError(f"interface {iface.name!r} already exists on {self.name}")
        iface.stack = self
        self.interfaces[iface.name] = iface
        self._local_ints = None
        return iface

    def remove_interface(self, name: str) -> None:
        """Unregister an interface and purge its routes from all tables.

        This is what happens when pppd tears down ``ppp0``: the kernel
        removes the device routes automatically.
        """
        iface = self.interfaces.pop(name, None)
        if iface is None:
            raise KeyError(f"no interface {name!r} on {self.name}")
        iface.bring_down()
        iface.stack = None
        self._local_ints = None
        self.rpdb.purge_dev(name)

    def iface(self, name: str) -> Interface:
        """Look up an interface by name."""
        return self.interfaces[name]

    def configure_interface(
        self,
        iface: Interface,
        address: AddressLike,
        prefix_len: int,
        add_connected_route: bool = True,
    ) -> None:
        """Assign an address and (by default) install the connected route."""
        iface.configure(address, prefix_len)
        if add_connected_route and prefix_len < 32:
            net = iface.connected_network()
            self.rpdb.main.add(Route(net, iface.name, src=iface.address), replace=True)

    def is_local_address(self, addr: AddressLike) -> bool:
        """Whether ``addr`` belongs to this node (incl. 127/8)."""
        try:
            value = addr._ip  # type: ignore[union-attr]
        except AttributeError:  # an address given as a string
            value = ip(addr)._ip  # type: ignore[attr-defined]
        return value >> 24 == 127 or value in (self._local_ints or self._local_addresses())

    def _local_addresses(self) -> FrozenSet[int]:
        """Collect the address integers (``lo`` keeps the set non-empty)."""
        local = self._local_ints = frozenset(
            int(i.address) for i in self.interfaces.values() if i.address is not None
        )
        return local

    # -- sockets --------------------------------------------------------

    def socket(self, xid: int = 0) -> UDPSocket:
        """Create a UDP socket owned by context ``xid``."""
        return UDPSocket(self, xid=xid)

    def register_socket(self, sock: UDPSocket, address: IPv4Address, port: int) -> None:
        """Bind bookkeeping; enforces address/port uniqueness."""
        if port == 0:
            port = self._allocate_ephemeral_port()
        else:
            for other in self._udp_ports.get(port, []):
                clash = (
                    other.address == address
                    or other.address == UNSPECIFIED
                    or address == UNSPECIFIED
                )
                if clash:
                    raise AddressInUseError(f"udp port {port} in use on {self.name}")
        sock.address = address
        sock.port = port
        self._udp_ports.setdefault(port, []).append(sock)

    def unregister_socket(self, sock: UDPSocket) -> None:
        """Remove a socket from the demux table."""
        holders = self._udp_ports.get(sock.port)
        if holders and sock in holders:
            holders.remove(sock)
            if not holders:
                del self._udp_ports[sock.port]

    def _allocate_ephemeral_port(self) -> int:
        start = self._next_ephemeral
        port = start
        while port in self._udp_ports:
            port += 1
            if port > EPHEMERAL_PORT_END:
                port = EPHEMERAL_PORT_START
            if port == start:
                raise AddressInUseError("ephemeral port space exhausted")
        self._next_ephemeral = port + 1
        if self._next_ephemeral > EPHEMERAL_PORT_END:
            self._next_ephemeral = EPHEMERAL_PORT_START
        return port

    # -- ICMP echo -------------------------------------------------------

    def register_echo_listener(self, ident: int, callback: Callable[[Packet], None]) -> None:
        """Register a pinger for echo replies with its identifier."""
        self._echo_listeners[ident] = callback

    def unregister_echo_listener(self, ident: int) -> None:
        """Remove a pinger registration."""
        self._echo_listeners.pop(ident, None)

    # -- local output path -------------------------------------------------

    def send(self, packet: Packet) -> None:
        """The LOCAL_OUT path for a packet generated on this node.

        Raises :class:`NoRouteError` when no policy rule/table matches
        (a failing ``sendto(2)`` with EHOSTUNREACH); filter drops are
        silent, as they are for real UDP senders.
        """
        now = packet.sent_at = self.sim.now
        # The source is UNSPECIFIED (0.0.0.0) until source selection.
        unspecified = not packet.src._ip  # type: ignore[attr-defined]
        if self.is_local_address(packet.dst):
            # Local delivery short-circuits through loopback semantics.
            self.sent_packets += 1
            if unspecified:
                packet.src = packet.dst
            self._local_deliver(packet, self.interfaces["lo"])
            return
        # mangle/OUTPUT first: a MARK set here steers the route lookup.
        # A quiet site only counts the crossing (see HookSite).
        netfilter = self.netfilter
        if netfilter.mangle_output.quiet:
            netfilter.mangle_output.crossings += 1
        elif not netfilter.run_chain("mangle", HOOK_OUTPUT, packet, now=now):
            self.dropped_filter += 1
            return
        route = self.rpdb.lookup(
            packet.dst,
            src=None if unspecified else packet.src,
            mark=packet.mark,
            oif=packet.bound_dev,
        )
        if route is None:
            self.dropped_no_route += 1
            raise NoRouteError(f"{self.name}: no route to {packet.dst}")
        if unspecified:
            out_iface = self.interfaces.get(route.dev)
            if route.src is not None:
                packet.src = route.src
            elif out_iface is not None and out_iface.address is not None:
                packet.src = out_iface.address
        if netfilter.filter_output.quiet:
            netfilter.filter_output.crossings += 1
        elif not netfilter.run_chain("filter", HOOK_OUTPUT, packet, out_iface=route.dev, now=now):
            self.dropped_filter += 1
            return
        if netfilter.postrouting.quiet:
            netfilter.postrouting.crossings += 1
        elif not netfilter.run_hook(HOOK_POSTROUTING, packet, out_iface=route.dev, now=now):
            self.dropped_filter += 1
            return
        self.sent_packets += 1
        self._transmit(packet, route)

    # -- input path ---------------------------------------------------------

    def receive(self, packet: Packet, iface: Interface) -> None:
        """A packet arrived on ``iface``."""
        now = self.sim.now
        netfilter = self.netfilter
        if netfilter.prerouting.quiet:
            netfilter.prerouting.crossings += 1
        elif not netfilter.run_hook(HOOK_PREROUTING, packet, in_iface=iface.name, now=now):
            self.dropped_filter += 1
            return
        dst = packet.dst._ip  # type: ignore[attr-defined]
        local = self._local_ints or self._local_addresses()
        if dst in local or dst >> 24 == 127 or iface.name == "lo":
            if netfilter.input.quiet:
                netfilter.input.crossings += 1
            elif not netfilter.run_hook(HOOK_INPUT, packet, in_iface=iface.name, now=now):
                self.dropped_filter += 1
                return
            self._local_deliver(packet, iface)
            return
        if not self.forwarding:
            self.dropped_no_route += 1
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.dropped_ttl += 1
            return
        route = self.rpdb.lookup(
            packet.dst, src=packet.src, mark=packet.mark, iif=iface.name
        )
        if route is None:
            self.dropped_no_route += 1
            return
        if netfilter.forward.quiet:
            netfilter.forward.crossings += 1
        elif not netfilter.run_hook(
            HOOK_FORWARD, packet, in_iface=iface.name, out_iface=route.dev, now=now
        ):
            self.dropped_filter += 1
            return
        if netfilter.postrouting.quiet:
            netfilter.postrouting.crossings += 1
        elif not netfilter.run_hook(HOOK_POSTROUTING, packet, out_iface=route.dev, now=now):
            self.dropped_filter += 1
            return
        self.forwarded_packets += 1
        self._transmit(packet, route)

    # -- shared internals -----------------------------------------------------

    def _local_deliver(self, packet: Packet, iface: Interface) -> None:
        self.delivered_packets += 1
        if packet.proto == PROTO_ICMP and isinstance(packet.payload, IcmpEcho):
            echo = packet.payload
            if echo.kind == ECHO_REQUEST:
                reply = make_echo_reply(packet, packet.dst)
                try:
                    self.send(reply)
                except (NoRouteError, InterfaceDownError):
                    pass
                return
            if echo.kind == ECHO_REPLY:
                listener = self._echo_listeners.get(echo.ident)
                if listener is not None:
                    listener(packet)
                return
            return
        if packet.proto == PROTO_UDP:
            sock = self._match_socket(packet, iface)
            if sock is None:
                self.dropped_no_socket += 1
                return
            sock.deliver(packet)
            return
        self.dropped_no_socket += 1

    def _match_socket(self, packet: Packet, iface: Interface) -> Optional[UDPSocket]:
        candidates = self._udp_ports.get(packet.dport, [])
        best: Optional[UDPSocket] = None
        dst = packet.dst._ip  # type: ignore[attr-defined]
        for sock in candidates:
            if sock.bound_device is not None and sock.bound_device != iface.name:
                continue
            bound = sock.address._ip  # type: ignore[attr-defined]
            if bound == dst:
                return sock
            if not bound and best is None:  # bound to UNSPECIFIED
                best = sock
        return best

    def install_bwlimiter(self, iface_name: str, **kwargs):
        """Attach PlanetLab-style per-slice egress shaping to an interface.

        Returns the :class:`~repro.vserver.bwlimit.SliceBandwidthLimiter`
        so callers can set per-xid caps.  Root-context traffic bypasses
        it, exactly as node management traffic does on PlanetLab.
        """
        from repro.vserver.bwlimit import SliceBandwidthLimiter

        iface = self.interfaces[iface_name]
        limiter = SliceBandwidthLimiter(
            self.sim, lambda packet: self._raw_transmit(packet, iface), **kwargs
        )
        self._bwlimiters[iface_name] = limiter
        return limiter

    def remove_bwlimiter(self, iface_name: str) -> None:
        """Detach shaping from an interface."""
        self._bwlimiters.pop(iface_name, None)

    def _transmit(self, packet: Packet, route: Route) -> None:
        iface = self.interfaces.get(route.dev)
        if iface is None:
            self.dropped_no_route += 1
            return
        limiter = self._bwlimiters.get(iface.name)
        if limiter is not None:
            limiter.send(packet)
            return
        try:
            iface.transmit(packet)
        except InterfaceDownError:
            self.dropped_iface_down += 1

    def _raw_transmit(self, packet: Packet, iface: Interface) -> None:
        try:
            iface.transmit(packet)
        except InterfaceDownError:
            self.dropped_iface_down += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IPStack {self.name} ifaces={sorted(self.interfaces)}>"
