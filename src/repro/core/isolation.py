"""Routing-rule and iptables isolation — §2.3's machinery, verbatim.

When the UMTS connection comes up for slice *S* the back-end installs:

1. an additional routing table (``umts``) holding only a default route
   through ``ppp0``;
2. RPDB rules steering into that table (i) packets carrying the UMTS
   fwmark and (ii) packets whose source address is ppp0's;
3. one ``mangle/OUTPUT`` MARK rule per registered destination, matching
   *S*'s context id via the VNET+ ``xid`` match;
4. the ``filter/OUTPUT`` rule dropping everything egressing ``ppp0``
   that was **not** generated by *S* — covering the special cases the
   paper lists (another slice addressing the PPP peer directly, or
   binding to the UMTS interface).

The back-end records each step in the node's ``ip``/``iptables``
facades as the literal command line the real back-end runs, so their
``history`` reads exactly like its shell trace, and carries the step
out as the facade's typed call.  A destination is parsed once, when
``umts add`` validates it, and its MARK rule is built from that
address; ``umts del`` removes the first rule that renders the same, as
``iptables -D`` does.  Teardown (``umts stop``, and ``umts del`` for
its one rule) runs every step even when a rule or route is already gone
(removed by hand, say), as a cleanup script carries on past a failing
``iptables -D``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.addressing import DEFAULT_NETWORK, AddressLike, IPv4Address, ip
from repro.net.stack import IPStack
from repro.netfilter.chains import Rule
from repro.netfilter.iptables import IptablesError
from repro.netfilter.matches import DestinationMatch, OutInterfaceMatch, XidMatch
from repro.netfilter.targets import DropTarget, MarkTarget
from repro.routing.iproute2 import IpRouteError

#: fwmark used for UMTS-slice traffic (the only mark on the node).
UMTS_FWMARK = 0x1
#: Name of the additional routing table.
UMTS_TABLE = "umts"
#: RPDB preferences for the two steering rules.
PREF_FWMARK_RULE = 100
PREF_SRC_RULE = 101


class IsolationManager:
    """Installs and removes the per-connection isolation state."""

    def __init__(self, stack: IPStack, ppp_ifname: str = "ppp0"):
        self.stack = stack
        self.ppp_ifname = ppp_ifname
        self.active = False
        self.slice_xid: Optional[int] = None
        self.ppp_address: Optional[IPv4Address] = None
        #: each destination added, as given, with its parsed address.
        self.destinations: Dict[str, IPv4Address] = {}
        self._mark_rules: Dict[str, Rule] = {}
        self._drop_rule: Optional[Rule] = None

    # -- connection lifecycle ---------------------------------------------

    def install(self, slice_xid: int, ppp_address: AddressLike) -> None:
        """Set up table, rules and filters for a fresh connection, then
        a MARK rule for each destination added so far, in sorted order."""
        if self.active:
            raise RuntimeError("isolation already installed")
        self.slice_xid = slice_xid
        self.ppp_address = ip(ppp_address)
        ppp = self.ppp_ifname
        self.stack.ip.record(f"route add default dev {ppp} table {UMTS_TABLE}")
        self.stack.ip.route_add(DEFAULT_NETWORK, ppp, table=UMTS_TABLE)
        self.stack.ip.record(
            f"rule add fwmark {UMTS_FWMARK:#x} lookup {UMTS_TABLE} pref {PREF_FWMARK_RULE}"
        )
        self.stack.ip.rule_add(UMTS_TABLE, PREF_FWMARK_RULE, fwmark=UMTS_FWMARK)
        source = str(self.ppp_address)
        self.stack.ip.record(f"rule add from {source} lookup {UMTS_TABLE} pref {PREF_SRC_RULE}")
        self.stack.ip.rule_add(UMTS_TABLE, PREF_SRC_RULE, src=source)
        self.stack.iptables.record(
            f"-t filter -A OUTPUT -o {ppp} -m xid ! --xid {slice_xid} -j DROP"
        )
        drop = Rule([OutInterfaceMatch(ppp), XidMatch(slice_xid, invert=True)], DropTarget())
        self._drop_rule = self.stack.iptables.append("filter", "OUTPUT", drop)
        self.active = True
        for destination in sorted(self.destinations):
            self._install_mark_rule(destination)

    def remove(self) -> List[str]:
        """Tear everything down (``umts stop``).  Idempotent.

        Every step runs and the manager ends inactive.  A step whose
        rule or route is already gone is skipped, its line still
        recorded; the facade's error text for each one is returned, in
        step order.
        """
        if not self.active:
            return []
        skipped: List[str] = []
        for destination in list(self._mark_rules):
            _attempt(skipped, self._remove_mark_rule, destination)
        assert self._drop_rule is not None
        self.stack.iptables.record(
            f"-t filter -D OUTPUT -o {self.ppp_ifname} -m xid ! --xid {self.slice_xid} -j DROP"
        )
        _attempt(skipped, self.stack.iptables.delete_spec, "filter", "OUTPUT", self._drop_rule)
        self.stack.ip.record(f"rule del pref {PREF_FWMARK_RULE}")
        _attempt(skipped, self.stack.ip.rule_del, PREF_FWMARK_RULE)
        self.stack.ip.record(f"rule del pref {PREF_SRC_RULE}")
        _attempt(skipped, self.stack.ip.rule_del, PREF_SRC_RULE)
        self.stack.ip.record(f"route flush table {UMTS_TABLE}")
        self.stack.ip.route_flush_table(UMTS_TABLE)
        self.active = False
        self.slice_xid = None
        self.ppp_address = None
        return skipped

    # -- destination management ------------------------------------------

    def add_destination(self, destination: str) -> None:
        """Route traffic from the UMTS slice to ``destination`` via UMTS."""
        address = ip(destination)  # validate, once
        if destination in self.destinations:
            raise ValueError(f"destination {destination} already added")
        self.destinations[destination] = address
        if self.active:
            self._install_mark_rule(destination)

    def del_destination(self, destination: str) -> List[str]:
        """Stop routing ``destination`` via UMTS.

        As in :meth:`remove`, a MARK rule that is already gone is
        skipped, its line still recorded; the facade's error text is
        returned (an empty list when the rule went as asked).
        """
        if destination not in self.destinations:
            raise ValueError(f"destination {destination} was never added")
        del self.destinations[destination]
        skipped: List[str] = []
        if destination in self._mark_rules:
            _attempt(skipped, self._remove_mark_rule, destination)
        return skipped

    def _install_mark_rule(self, destination: str) -> None:
        assert self.slice_xid is not None
        self.stack.iptables.record(
            f"-t mangle -A OUTPUT -m xid --xid {self.slice_xid} -d {destination} "
            f"-j MARK --set-mark {UMTS_FWMARK:#x}"
        )
        rule = Rule(
            [XidMatch(self.slice_xid), DestinationMatch(self.destinations[destination])],
            MarkTarget(UMTS_FWMARK),
        )
        self._mark_rules[destination] = self.stack.iptables.append("mangle", "OUTPUT", rule)

    def _remove_mark_rule(self, destination: str) -> None:
        rule = self._mark_rules.pop(destination)
        self.stack.iptables.record(
            f"-t mangle -D OUTPUT -m xid --xid {self.slice_xid} -d {destination} "
            f"-j MARK --set-mark {UMTS_FWMARK:#x}"
        )
        # By specification: the first rule that renders like ours goes.
        self.stack.iptables.delete_spec("mangle", "OUTPUT", rule)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "inactive"
        return f"<IsolationManager {state} xid={self.slice_xid} dests={len(self.destinations)}>"


def _attempt(skipped: List[str], step: Callable[..., Any], *args: Any) -> None:
    """Run one teardown step; a facade refusal (the rule or route is
    already gone) is noted in ``skipped`` instead of raised."""
    try:
        step(*args)
    except (IptablesError, IpRouteError) as exc:
        skipped.append(str(exc))
