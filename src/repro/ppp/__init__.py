"""PPP — the Point-to-Point Protocol over the 3G modem.

The paper's node needs the full PPP kernel module set
(``ppp_generic``, ``ppp_async``, ...) plus user-space pppd driven by
wvdial.  This package reproduces the protocol machinery:

- :mod:`repro.ppp.frame` — PPP frames and the LCP/IPCP control packets;
- :mod:`repro.ppp.fsm` — the RFC 1661 option-negotiation automaton
  (simplified but with retransmission and Term-Req/Ack teardown);
- :mod:`repro.ppp.lcp` / :mod:`repro.ppp.ipcp` — the two control
  protocols the dial-up needs (link establishment, IP address
  assignment);
- :mod:`repro.ppp.daemon` — ``Pppd``: runs LCP then IPCP over a frame
  transport and, once up, creates the ``ppp0`` interface on the node's
  stack (or the per-session interface on the GGSN, in server mode).
"""

from repro.ppp.daemon import Pppd, PppError
from repro.ppp.frame import (
    PPP_IP,
    PPP_IPCP,
    PPP_LCP,
    ControlPacket,
    PPPFrame,
)
from repro.ppp.fsm import FsmState

__all__ = [
    "ControlPacket",
    "FsmState",
    "PPPFrame",
    "PPP_IP",
    "PPP_IPCP",
    "PPP_LCP",
    "Pppd",
    "PppError",
]
