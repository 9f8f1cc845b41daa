"""An ``ip`` command facade over the RPDB.

The privileged back-end in the paper shells out to ``iproute2``.  To
keep that fidelity, :class:`IpRoute2` parses the same command strings
(``"route add default dev ppp0 table umts"``) besides its typed Python
API.  :attr:`IpRoute2.history` holds every line :meth:`IpRoute2.run`
parsed and every line a caller of the typed API recorded with
:meth:`IpRoute2.record`, so tests can assert the exact sequence the
back-end issued.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.addressing import AddressLike, NetworkLike
from repro.routing.rpdb import RoutingPolicyDatabase, Rule
from repro.routing.table import Route
from repro.shellwords import split_command


class IpRouteError(Exception):
    """Raised for malformed or failing ``ip`` commands."""


class IpRoute2:
    """``ip route`` / ``ip rule`` against one node's RPDB."""

    def __init__(self, rpdb: RoutingPolicyDatabase):
        self.rpdb = rpdb
        #: every command line run or recorded, in order.
        self.history: List[str] = []

    def record(self, command: str) -> None:
        """Add ``command`` to :attr:`history` for the typed call that carries it out."""
        self.history.append(command)

    # -- typed API ---------------------------------------------------

    def route_add(
        self,
        prefix: NetworkLike,
        dev: str,
        via: Optional[AddressLike] = None,
        src: Optional[AddressLike] = None,
        metric: int = 0,
        table: str = "main",
        replace: bool = False,
    ) -> Route:
        """Install a route (``ip route add``; ``replace`` for ``ip route replace``)."""
        try:
            route = Route(prefix, dev, via=via, src=src, metric=metric)
            self.rpdb.table(table).add(route, replace=replace)
        except ValueError as exc:
            raise IpRouteError(str(exc)) from exc
        return route

    def route_del(
        self,
        prefix: NetworkLike,
        dev: Optional[str] = None,
        via: Optional[AddressLike] = None,
        table: str = "main",
    ) -> None:
        """Remove a route (``ip route del``)."""
        try:
            self.rpdb.table(table).delete(prefix, dev=dev, via=via)
        except ValueError as exc:
            raise IpRouteError(str(exc)) from exc

    def route_flush_table(self, table: str) -> None:
        """Empty a table (``ip route flush table T``)."""
        self.rpdb.table(table).flush()

    def route_list(self, table: str = "main") -> List[Route]:
        """Routes in a table (``ip route show table T``)."""
        return list(self.rpdb.table(table))

    def rule_add(
        self,
        table: str,
        pref: int,
        src: Optional[NetworkLike] = None,
        fwmark: Optional[int] = None,
        iif: Optional[str] = None,
    ) -> Rule:
        """Install a policy rule (``ip rule add``)."""
        rule = Rule(pref, table, src=src, fwmark=fwmark, iif=iif)
        try:
            self.rpdb.add_rule(rule)
        except ValueError as exc:
            raise IpRouteError(str(exc)) from exc
        return rule

    def rule_del(
        self,
        pref: Optional[int] = None,
        table: Optional[str] = None,
        src: Optional[NetworkLike] = None,
        fwmark: Optional[int] = None,
    ) -> int:
        """Delete matching rules (``ip rule del``)."""
        try:
            return self.rpdb.delete_rule(pref=pref, table=table, src=src, fwmark=fwmark)
        except ValueError as exc:
            raise IpRouteError(str(exc)) from exc

    def rule_list(self) -> List[Rule]:
        """Rules in evaluation order (``ip rule show``)."""
        return self.rpdb.rules()

    # -- string-command front door ------------------------------------

    def run(self, command: str) -> None:
        """Execute an ``ip`` command string, e.g.
        ``"route add default dev ppp0 table umts"`` or
        ``"rule add fwmark 0x1 lookup umts pref 100"``.

        Only the verbs the paper's back-end needs are supported; anything
        else raises :class:`IpRouteError`, as does a malformed line (an
        unbalanced quote, a bad number, prefix or address).
        """
        self.record(command)
        try:
            self._execute(split_command(command), command)
        except ValueError as exc:
            raise IpRouteError(str(exc)) from exc

    def _execute(self, argv: List[str], command: str) -> None:
        if argv and argv[0] == "ip":
            argv = argv[1:]
        if len(argv) < 2:
            raise IpRouteError(f"short command: {command!r}")
        obj, verb, rest = argv[0], argv[1], argv[2:]
        if obj == "route":
            self._run_route(verb, rest, command)
        elif obj == "rule":
            self._run_rule(verb, rest, command)
        else:
            raise IpRouteError(f"unsupported object {obj!r} in {command!r}")

    def _run_route(self, verb: str, rest: List[str], command: str) -> None:
        if verb == "flush":
            if len(rest) == 2 and rest[0] == "table":
                self.route_flush_table(rest[1])
                return
            raise IpRouteError(f"bad route flush: {command!r}")
        if verb not in ("add", "del", "replace"):
            raise IpRouteError(f"unsupported route verb {verb!r}")
        if not rest:
            raise IpRouteError(f"missing prefix: {command!r}")
        prefix = rest[0]
        options = _parse_pairs(rest[1:], command)
        table = options.pop("table", "main")
        dev = options.pop("dev", None)
        via = options.pop("via", None)
        src = options.pop("src", None)
        metric = int(options.pop("metric", 0))
        if options:
            raise IpRouteError(f"unsupported route options {sorted(options)} in {command!r}")
        if verb in ("add", "replace"):
            if dev is None:
                raise IpRouteError(f"route add needs dev: {command!r}")
            self.route_add(
                prefix,
                dev,
                via=via,
                src=src,
                metric=metric,
                table=table,
                replace=(verb == "replace"),
            )
        else:
            self.route_del(prefix, dev=dev, via=via, table=table)

    def _run_rule(self, verb: str, rest: List[str], command: str) -> None:
        if verb not in ("add", "del"):
            raise IpRouteError(f"unsupported rule verb {verb!r}")
        options = _parse_pairs(rest, command)
        table = options.pop("lookup", options.pop("table", None))
        pref = options.pop("pref", options.pop("priority", None))
        src = options.pop("from", None)
        if src == "all":
            src = None
        fwmark = options.pop("fwmark", None)
        iif = options.pop("iif", None)
        if options:
            raise IpRouteError(f"unsupported rule options {sorted(options)} in {command!r}")
        mark = int(fwmark, 0) if fwmark is not None else None
        if verb == "add":
            if table is None or pref is None:
                raise IpRouteError(f"rule add needs lookup and pref: {command!r}")
            self.rule_add(table, int(pref), src=src, fwmark=mark, iif=iif)
        else:
            self.rule_del(
                pref=int(pref) if pref is not None else None,
                table=table,
                src=src,
                fwmark=mark,
            )


def _parse_pairs(tokens: List[str], command: str) -> dict:
    """Parse alternating keyword/value tokens into a dict."""
    if len(tokens) % 2 != 0:
        raise IpRouteError(f"dangling token in {command!r}")
    pairs = {}
    for i in range(0, len(tokens), 2):
        pairs[tokens[i]] = tokens[i + 1]
    return pairs
