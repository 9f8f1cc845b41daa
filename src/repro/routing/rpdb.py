"""The routing policy database (RPDB).

Linux consults an ordered list of rules for every routing decision;
each rule has a selector (source prefix, fwmark, input interface, ...)
and an action, normally "look up table T".  If the selected table has
no matching route the walk continues with the next rule — that
*continue-on-miss* behaviour is what lets the paper add a high-priority
``fwmark → umts`` rule without breaking ordinary traffic: unmarked
packets fall through to the ``main`` table.

Answers do not change between configuration writes, so the database
keeps each one in a decision cache keyed by the lookup's integer
destination and source, mark and interfaces.  Every write that can
change an answer (a route or rule change, a table dropped) empties it.
Creating a table cannot: an empty table falls through like a missing
one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addressing import (
    AddressLike,
    IPv4Address,
    IPv4Network,
    NetworkLike,
    ip,
    network,
    prefix_ints,
)
from repro.routing.table import Route, RoutingTable

MAIN_TABLE = "main"
DEFAULT_TABLE = "default"

#: Priorities of the three rules Linux installs at boot.
PREF_LOCAL = 0
PREF_MAIN = 32766
PREF_DEFAULT = 32767

#: A decision-cache key: ``(dst int, src int or None, mark, iif, oif)``.
DecisionKey = Tuple[int, Optional[int], int, Optional[str], Optional[str]]

#: Marks a key the decision cache has no answer for ("no route" is ``None``).
_UNDECIDED = object()


class Rule:
    """One RPDB rule: selector → lookup table.

    Only the selectors the reproduction needs are modelled: ``src``
    (the ``from`` clause), ``fwmark`` and ``iif``.  ``None`` means
    "match anything" for that field.
    """

    __slots__ = ("pref", "table", "src", "fwmark", "iif", "_src_net", "_src_mask")

    def __init__(
        self,
        pref: int,
        table: str,
        src: Optional[NetworkLike] = None,
        fwmark: Optional[int] = None,
        iif: Optional[str] = None,
    ):
        self.pref = pref
        self.table = table
        self.src: Optional[IPv4Network] = network(src) if src is not None else None
        self.fwmark = fwmark
        self.iif = iif
        # The ``from`` prefix as integers (unused when ``src`` is None).
        self._src_net = self._src_mask = 0
        if self.src is not None:
            self._src_net, self._src_mask, _ = prefix_ints(self.src)

    def matches(
        self,
        dst: IPv4Address,
        src: Optional[IPv4Address],
        mark: int,
        iif: Optional[str],
    ) -> bool:
        """Whether the selector accepts this packet."""
        if self.src is not None and (
            src is None or src._ip & self._src_mask != self._src_net  # type: ignore[attr-defined]
        ):
            return False
        if self.fwmark is not None and mark != self.fwmark:
            return False
        if self.iif is not None and iif != self.iif:
            return False
        return True

    def key(self) -> tuple:
        """Identity key used for delete semantics."""
        return (self.pref, self.table, self.src, self.fwmark, self.iif)

    def __repr__(self) -> str:
        parts = [f"{self.pref}:"]
        parts.append(f"from {self.src}" if self.src is not None else "from all")
        if self.fwmark is not None:
            parts.append(f"fwmark {self.fwmark:#x}")
        if self.iif is not None:
            parts.append(f"iif {self.iif}")
        parts.append(f"lookup {self.table}")
        return " ".join(parts)


class RoutingPolicyDatabase:
    """Tables plus the priority-ordered rule list.

    A fresh RPDB has ``main`` and ``default`` tables and the standard
    rules pointing at them.  (The kernel's ``local`` table is handled
    directly by the stack's is-this-address-mine check.)
    """

    def __init__(self) -> None:
        self._tables: Dict[str, RoutingTable] = {}
        self._rules: List[Rule] = []
        #: the decision cache: one answer per key seen since the last
        #: write, shared with every table so their writes empty it too.
        self._decisions: Dict[DecisionKey, Optional[Route]] = {}
        self.table(MAIN_TABLE)
        self.table(DEFAULT_TABLE)
        self.add_rule(Rule(PREF_MAIN, MAIN_TABLE))
        self.add_rule(Rule(PREF_DEFAULT, DEFAULT_TABLE))

    # -- tables ------------------------------------------------------

    def table(self, name: str) -> RoutingTable:
        """Return (creating if needed) the table called ``name``."""
        if name not in self._tables:
            self._tables[name] = RoutingTable(name, self._decisions)
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        """Whether a table called ``name`` exists."""
        return name in self._tables

    def drop_table(self, name: str) -> None:
        """Delete a user table entirely (``main``/``default`` are kept)."""
        if name in (MAIN_TABLE, DEFAULT_TABLE):
            raise ValueError(f"refusing to drop built-in table {name!r}")
        self._tables.pop(name, None)
        self._decisions.clear()

    @property
    def main(self) -> RoutingTable:
        """The main routing table."""
        return self._tables[MAIN_TABLE]

    def purge_dev(self, dev: str) -> int:
        """Remove routes through ``dev`` from every table (device gone)."""
        return sum(table.remove_dev(dev) for table in self._tables.values())

    # -- rules -------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Insert a rule, keeping the list sorted by preference."""
        if any(r.key() == rule.key() for r in self._rules):
            raise ValueError(f"rule already exists: {rule!r}")
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.pref)
        self._decisions.clear()

    def delete_rule(
        self,
        pref: Optional[int] = None,
        table: Optional[str] = None,
        src: Optional[NetworkLike] = None,
        fwmark: Optional[int] = None,
    ) -> int:
        """Delete rules matching every given criterion; returns count."""
        src_net = network(src) if src is not None else None
        survivors = []
        removed = 0
        for rule in self._rules:
            if (
                (pref is None or rule.pref == pref)
                and (table is None or rule.table == table)
                and (src_net is None or rule.src == src_net)
                and (fwmark is None or rule.fwmark == fwmark)
            ):
                removed += 1
            else:
                survivors.append(rule)
        if not removed:
            raise ValueError("no matching rule")
        self._rules = survivors
        self._decisions.clear()
        return removed

    def rules(self) -> List[Rule]:
        """The rules in evaluation order."""
        return list(self._rules)

    # -- lookup ------------------------------------------------------

    def lookup(
        self,
        dst: AddressLike,
        src: Optional[AddressLike] = None,
        mark: int = 0,
        iif: Optional[str] = None,
        oif: Optional[str] = None,
    ) -> Optional[Route]:
        """Full policy-routing decision.

        Walks the rules in priority order; for each matching rule, does
        an LPM lookup in its table and returns the first hit.  A miss
        continues with the next rule (Linux's behaviour for a table
        with no matching route).  ``oif`` constrains the lookup to one
        output device (SO_BINDTODEVICE).  The walk runs once per key
        between writes; the decision cache answers the repeats.
        """
        try:
            source = None if src is None else src._ip  # type: ignore[union-attr]
            key = (dst._ip, source, mark, iif, oif)  # type: ignore[union-attr]
        except AttributeError:  # an address given as a string
            return self.lookup(ip(dst), None if src is None else ip(src), mark, iif, oif)
        decisions = self._decisions
        cached = decisions.get(key, _UNDECIDED)
        if cached is not _UNDECIDED:
            return cached  # type: ignore[return-value]
        route: Optional[Route] = None
        for rule in self._rules:
            if not rule.matches(dst, src, mark, iif):  # type: ignore[arg-type]
                continue
            table = self._tables.get(rule.table)
            if table is None:
                continue
            route = table.lookup(dst, oif=oif)
            if route is not None:
                break
        decisions[key] = route
        return route
