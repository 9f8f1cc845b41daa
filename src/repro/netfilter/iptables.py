"""The ``iptables`` command facade.

Like :class:`repro.routing.IpRoute2`, this offers a typed API and a
parser for the literal command strings the paper's back-end runs, e.g.::

    iptables -t mangle -A OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 1
    iptables -t filter -A OUTPUT -o ppp0 -m xid ! --xid 510 -j DROP

:attr:`Iptables.history` is the node's shell trace: :meth:`Iptables.run`
records each line it parses, and a caller that issues typed calls
records the line it stands for with :meth:`Iptables.record` (the umts
back-end does, so its trace reads like the real one's).

Deletion by specification (``-D`` with the same clauses as the ``-A``)
is supported because that is how the back-end removes per-destination
marking rules on ``umts del <dest>``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.addressing import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.netfilter.chains import Chain, Netfilter, Rule
from repro.netfilter.matches import (
    DestinationMatch,
    DportMatch,
    InInterfaceMatch,
    MarkMatch,
    Match,
    OutInterfaceMatch,
    ProtocolMatch,
    SourceMatch,
    SportMatch,
    XidMatch,
)
from repro.netfilter.targets import (
    AcceptTarget,
    DropTarget,
    LogTarget,
    MarkTarget,
    ReturnTarget,
    Target,
    Verdict,
)
from repro.shellwords import split_command

_PROTO_NUMBERS = {"icmp": PROTO_ICMP, "tcp": PROTO_TCP, "udp": PROTO_UDP}


class IptablesError(Exception):
    """Raised for malformed or failing iptables commands."""


class Iptables:
    """iptables against one node's :class:`Netfilter` state."""

    def __init__(self, netfilter: Netfilter):
        self.netfilter = netfilter
        #: every command line run or recorded, in order.
        self.history: List[str] = []

    def record(self, command: str) -> None:
        """Add ``command`` to :attr:`history` for the typed call that carries it out."""
        self.history.append(command)

    # -- typed API ---------------------------------------------------

    def append(self, table: str, chain: str, rule: Rule) -> Rule:
        """``-A``: add a rule at the end of a chain."""
        self._chain(table, chain).append(rule)
        return rule

    def insert(self, table: str, chain: str, rule: Rule, index: int = 0) -> Rule:
        """``-I``: add a rule at a position (0-based)."""
        self._chain(table, chain).insert(rule, index)
        return rule

    def delete(self, table: str, chain: str, rule: Rule) -> None:
        """``-D`` with a rule object previously returned by append/insert."""
        try:
            self._chain(table, chain).delete(rule)
        except ValueError as exc:
            raise IptablesError(str(exc)) from exc

    def delete_spec(self, table: str, chain: str, spec: Rule) -> None:
        """``-D`` by specification: remove the first rule whose clauses
        render identically to ``spec`` (how iptables matches them).
        ``spec`` may be a rule of the chain itself."""
        target_chain = self._chain(table, chain)
        wanted = repr(spec)
        for rule in target_chain.rules:
            if repr(rule) == wanted:
                target_chain.delete(rule)
                return
        raise IptablesError(f"no rule matching spec in {table}/{chain}: {wanted}")

    def flush(self, table: str, chain: Optional[str] = None) -> None:
        """``-F``: flush one chain, or every chain of the table."""
        if chain is not None:
            self._chain(table, chain).flush()
            return
        for each in self.netfilter.table(table).chains.values():
            each.flush()

    def policy(self, table: str, chain: str, verdict: str) -> None:
        """``-P``: set a built-in chain's policy."""
        target_chain = self._chain(table, chain)
        if target_chain.policy is None:
            raise IptablesError(f"cannot set policy on user chain {chain!r}")
        target_chain.policy = Verdict(verdict)

    def list_rules(self, table: str, chain: str) -> List[Rule]:
        """``-L``: the rules of a chain, in order."""
        return list(self._chain(table, chain).rules)

    def _chain(self, table: str, chain: str) -> Chain:
        try:
            return self.netfilter.table(table).chain(chain)
        except KeyError as exc:
            raise IptablesError(f"no such table/chain: {table}/{chain}") from exc

    # -- string-command front door ------------------------------------

    def run(self, command: str) -> Optional[Rule]:
        """Execute an iptables command string.

        Returns the created rule for ``-A``/``-I``, ``None`` otherwise.
        A malformed line (an unbalanced quote, a bad number, address or
        policy) raises :class:`IptablesError`.
        """
        self.record(command)
        try:
            return self._execute(split_command(command), command)
        except ValueError as exc:
            raise IptablesError(str(exc)) from exc

    def _execute(self, tokens: List[str], command: str) -> Optional[Rule]:
        if tokens and tokens[0] == "iptables":
            tokens = tokens[1:]
        table = "filter"
        operation = None
        chain = None
        index = 0
        # First pass: pull out -t and the operation.
        i = 0
        remaining: List[str] = []
        while i < len(tokens):
            token = tokens[i]
            if token == "-t":
                table = _take_value(tokens, i, command)
                i += 2
            elif token in ("-A", "-D", "-F", "-P"):
                operation = token
                if i + 1 < len(tokens) and not tokens[i + 1].startswith("-"):
                    chain = tokens[i + 1]
                    i += 2
                else:
                    i += 1
            elif token == "-I":
                operation = token
                chain = _take_value(tokens, i, command)
                i += 2
                if i < len(tokens) and tokens[i].isdigit():
                    index = int(tokens[i]) - 1  # iptables -I is 1-based
                    i += 1
            else:
                remaining.append(token)
                i += 1
        if operation is None:
            raise IptablesError(f"no operation in {command!r}")
        if operation == "-F":
            self.flush(table, chain)
            return None
        if operation == "-P":
            if chain is None or not remaining:
                raise IptablesError(f"-P needs chain and policy: {command!r}")
            self.policy(table, chain, remaining[0])
            return None
        if chain is None:
            raise IptablesError(f"missing chain in {command!r}")
        rule = self._parse_rule_spec(remaining, command)
        if operation == "-A":
            return self.append(table, chain, rule)
        if operation == "-I":
            return self.insert(table, chain, rule, index)
        self.delete_spec(table, chain, rule)
        return None

    def _parse_rule_spec(self, tokens: List[str], command: str) -> Rule:
        matches: List[Match] = []
        target: Optional[Target] = None
        invert = False
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token == "!":
                invert = True
                i += 1
                continue
            if token == "-m":
                # The module name itself (mark/xid/...) carries no state.
                _take_value(tokens, i, command)
                i += 2
                continue
            if token == "-p":
                name = _take_value(tokens, i, command)
                proto = _PROTO_NUMBERS.get(name)
                if proto is None:
                    raise IptablesError(f"unknown protocol {name!r}")
                matches.append(ProtocolMatch(proto, invert=invert))
            elif token == "-s":
                matches.append(SourceMatch(_take_value(tokens, i, command), invert=invert))
            elif token == "-d":
                matches.append(
                    DestinationMatch(_take_value(tokens, i, command), invert=invert)
                )
            elif token == "-i":
                matches.append(
                    InInterfaceMatch(_take_value(tokens, i, command), invert=invert)
                )
            elif token == "-o":
                matches.append(
                    OutInterfaceMatch(_take_value(tokens, i, command), invert=invert)
                )
            elif token == "--mark":
                value = _take_value(tokens, i, command)
                if "/" in value:
                    mark_text, mask_text = value.split("/", 1)
                    matches.append(
                        MarkMatch(int(mark_text, 0), int(mask_text, 0), invert=invert)
                    )
                else:
                    matches.append(MarkMatch(int(value, 0), invert=invert))
            elif token == "--xid":
                matches.append(
                    XidMatch(int(_take_value(tokens, i, command)), invert=invert)
                )
            elif token == "--sport":
                matches.append(
                    SportMatch(int(_take_value(tokens, i, command)), invert=invert)
                )
            elif token == "--dport":
                matches.append(
                    DportMatch(int(_take_value(tokens, i, command)), invert=invert)
                )
            elif token == "-j":
                name = _take_value(tokens, i, command)
                if name == "ACCEPT":
                    target = AcceptTarget()
                elif name == "DROP":
                    target = DropTarget()
                elif name == "RETURN":
                    target = ReturnTarget()
                elif name == "LOG":
                    target = LogTarget()
                elif name == "MARK":
                    if i + 3 < len(tokens) and tokens[i + 2] == "--set-mark":
                        target = MarkTarget(int(tokens[i + 3], 0))
                        i += 2
                    else:
                        raise IptablesError(f"MARK needs --set-mark: {command!r}")
                else:
                    raise IptablesError(f"unsupported target {name!r}")
            else:
                raise IptablesError(f"unsupported token {token!r} in {command!r}")
            if token != "!":
                invert = False
            i += 2
        if target is None:
            raise IptablesError(f"rule without -j target: {command!r}")
        return Rule(matches, target)


def _take_value(tokens: List[str], i: int, command: str) -> str:
    """The value following option ``tokens[i]``."""
    if i + 1 >= len(tokens):
        raise IptablesError(f"option {tokens[i]!r} missing value in {command!r}")
    return tokens[i + 1]
