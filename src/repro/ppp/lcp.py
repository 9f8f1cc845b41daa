"""LCP — the PPP Link Control Protocol.

Negotiates link parameters before any network protocol runs.  Two
options are modelled: ``mru`` and ``magic`` (the magic number, whose
collision check is PPP's looped-back-link detection).
"""

from __future__ import annotations

import random as _random
from typing import Any, Dict, Optional, Tuple

from repro.ppp.frame import CONF_ACK, CONF_NAK
from repro.ppp.fsm import NegotiationFsm

DEFAULT_MRU = 1500
MIN_MRU = 576


class LcpFsm(NegotiationFsm):
    """One side's LCP automaton."""

    protocol_name = "LCP"

    def __init__(self, *args: Any, rng: Optional[_random.Random] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._rng = rng
        self.loopback_detected = False

    def initial_options(self) -> Dict[str, Any]:
        magic = self._rng.getrandbits(32) if self._rng is not None else 0x1234ABCD
        return {"mru": DEFAULT_MRU, "magic": magic}

    def check_peer_options(self, options: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        suggestions: Dict[str, Any] = {}
        peer_magic = options.get("magic")
        if peer_magic is not None and peer_magic == self.options.get("magic"):
            # Same magic number on both sides: the link is looped back.
            self.loopback_detected = True
            suggestions["magic"] = (self.options["magic"] + 1) & 0xFFFFFFFF
            trace = self.sim.trace
            if trace is not None:
                trace.error("ppp.lcp.loopback", magic=peer_magic)
        peer_mru = options.get("mru", DEFAULT_MRU)
        if peer_mru < MIN_MRU:
            suggestions["mru"] = DEFAULT_MRU
            trace = self.sim.trace
            if trace is not None:
                trace.emit("ppp.lcp.mru_naked", offered=peer_mru, suggested=DEFAULT_MRU)
        if suggestions:
            merged = dict(options)
            merged.update(suggestions)
            return CONF_NAK, merged
        return CONF_ACK, options

    @property
    def negotiated_mru(self) -> int:
        """The MRU in effect once the link is open (peer's, else default)."""
        return int(self.peer_options.get("mru", DEFAULT_MRU))
