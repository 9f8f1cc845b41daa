"""Chains, tables and the hook dispatcher."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.netfilter.matches import Match
from repro.netfilter.targets import Target, Verdict

# Module-level alias: the quiet-hook test reads it once per packet.
_ACCEPT = Verdict.ACCEPT

#: Hook points in traversal order for locally generated traffic.
HOOK_PREROUTING = "PREROUTING"
HOOK_INPUT = "INPUT"
HOOK_FORWARD = "FORWARD"
HOOK_OUTPUT = "OUTPUT"
HOOK_POSTROUTING = "POSTROUTING"

#: Which built-in chains each table owns (as on Linux).
TABLE_CHAINS = {
    "mangle": [
        HOOK_PREROUTING,
        HOOK_INPUT,
        HOOK_FORWARD,
        HOOK_OUTPUT,
        HOOK_POSTROUTING,
    ],
    "filter": [HOOK_INPUT, HOOK_FORWARD, HOOK_OUTPUT],
}

#: Evaluation order of tables at each hook (mangle priority < filter).
HOOK_TABLE_ORDER = {
    HOOK_PREROUTING: ["mangle"],
    HOOK_INPUT: ["mangle", "filter"],
    HOOK_FORWARD: ["mangle", "filter"],
    HOOK_OUTPUT: ["mangle", "filter"],
    HOOK_POSTROUTING: ["mangle"],
}


class PacketContext:
    """Everything a match/target may look at during one hook traversal."""

    __slots__ = ("packet", "in_iface", "out_iface", "hook", "now")

    def __init__(
        self,
        packet: Packet,
        hook: str,
        in_iface: Optional[str] = None,
        out_iface: Optional[str] = None,
        now: Optional[float] = None,
    ):
        self.packet = packet
        self.hook = hook
        self.in_iface = in_iface
        self.out_iface = out_iface
        self.now = now


class Rule:
    """A list of matches plus a target, with iptables-style counters."""

    def __init__(self, matches: List[Match], target: Target, comment: str = ""):
        self.matches = list(matches)
        self.target = target
        self.comment = comment
        self.packets = 0
        self.bytes = 0

    def try_apply(self, ctx: PacketContext):
        """If every match passes, bump counters and apply the target.

        Returns the target's result, or the sentinel string
        ``"NOMATCH"`` when a match failed.
        """
        for match in self.matches:
            if not match.matches(ctx):
                return "NOMATCH"
        self.packets += 1
        self.bytes += ctx.packet.length
        return self.target.apply(ctx)

    def __repr__(self) -> str:
        clauses = " ".join(repr(m) for m in self.matches)
        text = f"{clauses} {self.target!r}".strip()
        if self.comment:
            text += f"  # {self.comment}"
        return text


class Chain:
    """An ordered rule list with an optional default policy.

    Built-in chains have an ACCEPT/DROP policy; user-defined chains
    have ``policy=None`` and fall back to the caller (implicit RETURN).
    """

    def __init__(self, name: str, policy: Optional[Verdict] = Verdict.ACCEPT):
        self.name = name
        self.policy = policy
        self.rules: List[Rule] = []
        self.policy_packets = 0

    def append(self, rule: Rule) -> None:
        """Add a rule at the end (``-A``)."""
        self.rules.append(rule)

    def insert(self, rule: Rule, index: int = 0) -> None:
        """Add a rule at ``index`` (``-I``; 0-based, default head)."""
        self.rules.insert(index, rule)

    def delete(self, rule: Rule) -> None:
        """Remove a specific rule object (``-D``)."""
        try:
            self.rules.remove(rule)
        except ValueError as exc:
            raise ValueError(f"rule not in chain {self.name}: {rule!r}") from exc

    def flush(self) -> None:
        """Drop all rules (``-F``)."""
        self.rules.clear()

    def traverse(self, ctx: PacketContext):
        """Run the packet down the chain.

        Returns a :class:`Verdict`, ``"RETURN"``, or ``None`` (end of a
        user chain without verdict).  Built-in chains convert
        end-of-chain into their policy.
        """
        for rule in self.rules:
            result = rule.try_apply(ctx)
            if result == "NOMATCH" or result is None:
                continue
            return result
        if self.policy is not None:
            self.policy_packets += 1
            return self.policy
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        policy = self.policy.value if self.policy else "-"
        return f"<Chain {self.name} policy={policy} rules={len(self.rules)}>"


class Table:
    """A named table owning its built-in chains plus user chains."""

    def __init__(self, name: str):
        self.name = name
        self.chains: Dict[str, Chain] = {
            chain_name: Chain(chain_name) for chain_name in TABLE_CHAINS[name]
        }

    def chain(self, name: str) -> Chain:
        """Look up a chain; raises ``KeyError`` if absent."""
        return self.chains[name]

    def new_chain(self, name: str) -> Chain:
        """Create a user-defined chain (``-N``)."""
        if name in self.chains:
            raise ValueError(f"chain {name!r} already exists in table {self.name!r}")
        chain = Chain(name, policy=None)
        self.chains[name] = chain
        return chain


class Netfilter:
    """One node's netfilter state and hook dispatcher."""

    def __init__(self) -> None:
        self.tables: Dict[str, Table] = {
            "mangle": Table("mangle"),
            "filter": Table("filter"),
        }
        #: Each hook's built-in chains in table order, resolved once.
        self._hook_chains: Dict[str, Tuple[Chain, ...]] = {
            hook: tuple([self.tables[name].chains[hook] for name in table_names])
            for hook, table_names in HOOK_TABLE_ORDER.items()
        }
        self.dropped = 0
        #: optional :class:`~repro.obs.MetricsRegistry`; when bound, the
        #: dispatcher counts marked and dropped packets per slice xid.
        self.metrics = None
        # Per-xid counter names, built once per xid so the per-packet
        # hot path hands the registry a ready-made string (metric-name
        # lint rule: no runtime string building per event).
        self._drop_counter_names: Dict[int, str] = {}
        self._mark_counter_names: Dict[int, str] = {}

    def _drop_counter_name(self, xid: int) -> str:
        name = self._drop_counter_names.get(xid)
        if name is None:
            name = self._drop_counter_names[xid] = "netfilter.dropped.xid." + str(xid)
        return name

    def _mark_counter_name(self, xid: int) -> str:
        name = self._mark_counter_names.get(xid)
        if name is None:
            name = self._mark_counter_names[xid] = "netfilter.marked.xid." + str(xid)
        return name

    def _note_drop(self, packet: Packet, hook: str) -> None:
        self.dropped += 1
        if self.metrics is not None:
            self.metrics.counter("netfilter.dropped").inc()
            self.metrics.counter(self._drop_counter_name(packet.xid)).inc()

    def _note_mark(self, metrics: Any, packet: Packet, mark_before: int) -> None:
        if packet.mark != mark_before:
            metrics.counter("netfilter.marked").inc()
            metrics.counter(self._mark_counter_name(packet.xid)).inc()

    def table(self, name: str) -> Table:
        """Look up a table (``filter`` or ``mangle``)."""
        return self.tables[name]

    def run_hook(
        self,
        hook: str,
        packet: Packet,
        in_iface: Optional[str] = None,
        out_iface: Optional[str] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Run every table registered at ``hook``; False means DROP.

        A quiet hook, where every chain is empty with an ACCEPT policy,
        only counts the packet against each policy.
        """
        chains = self._hook_chains[hook]
        for chain in chains:
            if chain.rules or chain.policy is not _ACCEPT:
                return self._run(chains, hook, packet, in_iface, out_iface, now)
        for chain in chains:
            chain.policy_packets += 1
        return True

    def run_chain(
        self,
        table: str,
        hook: str,
        packet: Packet,
        in_iface: Optional[str] = None,
        out_iface: Optional[str] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Run a single table's built-in chain at ``hook``.

        The local-output path needs this split: ``mangle/OUTPUT`` runs
        *before* the routing decision (so a MARK there can steer it)
        while ``filter/OUTPUT`` runs after, once the output interface is
        known.
        """
        chain = self.tables[table].chains.get(hook)
        if chain is None:
            return True
        if not chain.rules and chain.policy is _ACCEPT:
            chain.policy_packets += 1
            return True
        return self._run((chain,), hook, packet, in_iface, out_iface, now)

    def _run(
        self,
        chains: Tuple[Chain, ...],
        hook: str,
        packet: Packet,
        in_iface: Optional[str],
        out_iface: Optional[str],
        now: Optional[float],
    ) -> bool:
        """Traverse built-in ``chains`` in order; False means DROP.

        A chain with no rules costs one check: it counts the packet
        against its policy and returns it.  The :class:`PacketContext`
        is built only when some chain has rules to look at it, and a
        mark change is noted only when a metrics registry is bound.
        """
        ctx = None
        mark_before = packet.mark
        for chain in chains:
            if chain.rules:
                if ctx is None:
                    ctx = PacketContext(packet, hook, in_iface, out_iface, now)
                verdict = chain.traverse(ctx)
            else:
                chain.policy_packets += 1
                verdict = chain.policy
            if verdict is Verdict.DROP:
                self._note_drop(packet, hook)
                return False
        metrics = self.metrics
        if metrics is not None:
            self._note_mark(metrics, packet, mark_before)
        return True
