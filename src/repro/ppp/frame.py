"""PPP frames and control packets.

The simulation moves frames as objects, never as octets: a
:class:`PPPFrame` carries its protocol number and a parsed payload,
and :attr:`PPPFrame.wire_length` stands in for the octet count when
a link computes serialization time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: PPP protocol field values (RFC 1661 / assigned numbers).
PPP_IP = 0x0021
PPP_LCP = 0xC021
PPP_IPCP = 0x8021

#: LCP/IPCP packet codes (RFC 1661 §5).
CONF_REQ = 1
CONF_ACK = 2
CONF_NAK = 3
CONF_REJ = 4
TERM_REQ = 5
TERM_ACK = 6
CODE_REJ = 7
ECHO_REQ = 9
ECHO_REP = 10

CODE_NAMES = {
    CONF_REQ: "Configure-Request",
    CONF_ACK: "Configure-Ack",
    CONF_NAK: "Configure-Nak",
    CONF_REJ: "Configure-Reject",
    TERM_REQ: "Terminate-Request",
    TERM_ACK: "Terminate-Ack",
    CODE_REJ: "Code-Reject",
    ECHO_REQ: "Echo-Request",
    ECHO_REP: "Echo-Reply",
}


class ControlPacket:
    """An LCP or IPCP packet: code, identifier, option dictionary.

    Options are a name→value mapping rather than packed TLVs:
    negotiation logic is clearer over parsed options.
    """

    __slots__ = ("code", "identifier", "options")

    def __init__(self, code: int, identifier: int, options: Optional[Dict[str, Any]] = None):
        self.code = code
        self.identifier = identifier
        self.options = dict(options or {})

    def __repr__(self) -> str:
        name = CODE_NAMES.get(self.code, f"code-{self.code}")
        return f"<{name} id={self.identifier} {self.options!r}>"


class PPPFrame:
    """One PPP frame: protocol number plus payload.

    The payload is a :class:`ControlPacket` for LCP/IPCP frames or an
    IP :class:`~repro.net.packet.Packet` for data frames.
    """

    __slots__ = ("protocol", "payload")

    def __init__(self, protocol: int, payload: Any):
        self.protocol = protocol
        self.payload = payload

    @property
    def wire_length(self) -> int:
        """Approximate on-the-wire size in bytes (for serialization time).

        Data frames: IP length + 4 bytes PPP overhead (address/control
        stripped by ACFC, 2-byte protocol + FCS approximation).
        Control frames: a small fixed size.
        """
        if self.protocol == PPP_IP:
            return self.payload.length + 4
        return 16

    def __repr__(self) -> str:
        return f"<PPPFrame proto={self.protocol:#06x} {self.payload!r}>"
