"""IPCP — the PPP IP Control Protocol.

This is how the mobile node gets its address: the client requests
``0.0.0.0``; the server (the operator's GGSN) Configure-Naks with the
address it assigned from its pool; the client re-requests that address
and the server acks it.  The client may also ask for primary and
secondary DNS; the server naks the primary to its own value, the same
nak-to-assign pattern, and leaves the secondary as requested.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.net.addressing import UNSPECIFIED, AddressLike, IPv4Address, ip
from repro.ppp.frame import CONF_ACK, CONF_NAK
from repro.ppp.fsm import NegotiationFsm


class IpcpClientFsm(NegotiationFsm):
    """The mobile side: asks for an address, accepts what it is given.

    With ``request_dns`` the client also asks for the operator's DNS
    servers (requesting ``0.0.0.0`` and taking the Configure-Nak'd
    values), which is how pppd's ``usepeerdns`` works.
    """

    protocol_name = "IPCP"

    def __init__(self, *args: Any, request_dns: bool = False, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.request_dns = request_dns

    def initial_options(self) -> Dict[str, Any]:
        options = {"addr": str(UNSPECIFIED)}
        if self.request_dns:
            options["dns1"] = str(UNSPECIFIED)
            options["dns2"] = str(UNSPECIFIED)
        return options

    def on_nak(self, suggested: Dict[str, Any]) -> None:
        """Fold in the server's assignment, tracing the offered address."""
        super().on_nak(suggested)
        if "addr" in suggested:
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    "ppp.ipcp.addr_offered",
                    addr=str(suggested["addr"]),
                    dns1=str(suggested.get("dns1", "")),
                    dns2=str(suggested.get("dns2", "")),
                )

    def check_peer_options(self, options: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        # The server announces its own address; the client accepts it.
        return CONF_ACK, options

    @property
    def local_address(self) -> Optional[IPv4Address]:
        """The address the server assigned us (after open)."""
        addr = self.options.get("addr")
        if addr is None or str(addr) == str(UNSPECIFIED):
            return None
        return ip(addr)

    @property
    def peer_address(self) -> Optional[IPv4Address]:
        """The server's address (after open)."""
        addr = self.peer_options.get("addr")
        return ip(addr) if addr else None

    @property
    def dns_servers(self) -> Tuple[Optional[IPv4Address], Optional[IPv4Address]]:
        """Primary/secondary DNS pushed by the operator, if any.

        The unspecified address (a request the server never answered)
        reads back as None.
        """

        def parse(value: Any) -> Optional[IPv4Address]:
            if not value:
                return None
            parsed = ip(value)
            return None if str(parsed) == str(UNSPECIFIED) else parsed

        return parse(self.options.get("dns1")), parse(self.options.get("dns2"))


class IpcpServerFsm(NegotiationFsm):
    """The GGSN side: owns the pool assignment for this session."""

    protocol_name = "IPCP"

    def __init__(
        self,
        *args: Any,
        local_address: AddressLike,
        assign_address: AddressLike,
        dns1: Optional[AddressLike] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._local = ip(local_address)
        self._assign = ip(assign_address)
        self._dns1 = ip(dns1) if dns1 is not None else None

    def initial_options(self) -> Dict[str, Any]:
        return {"addr": str(self._local)}

    def check_peer_options(self, options: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        wanted = options.get("addr")
        suggestions: Dict[str, Any] = {}
        if wanted is None or str(wanted) != str(self._assign):
            suggestions["addr"] = str(self._assign)
        if "dns1" in options and self._dns1 is not None and str(options["dns1"]) != str(self._dns1):
            suggestions["dns1"] = str(self._dns1)
        if suggestions:
            merged = dict(options)
            merged.update(suggestions)
            if "addr" in suggestions:
                trace = self.sim.trace
                if trace is not None:
                    trace.emit("ppp.ipcp.addr_assigned", addr=str(self._assign))
            return CONF_NAK, merged
        return CONF_ACK, options

    @property
    def local_address(self) -> IPv4Address:
        """The GGSN-side address of the point-to-point link."""
        return self._local

    @property
    def assigned_address(self) -> IPv4Address:
        """The address handed to the mobile."""
        return self._assign
