"""Chains, tables and the hook dispatcher."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.netfilter.matches import Match
from repro.netfilter.targets import Target, Verdict

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
    """A list of matches plus a target, with iptables-style counters.

    A rule is not changed once built, so its text (what ``-D`` by
    specification compares) is rendered on first use and kept.
    """

    def __init__(self, matches: List[Match], target: Target, comment: str = ""):
        self.matches = list(matches)
        self.target = target
        self.comment = comment
        self.packets = 0
        self.bytes = 0
        self._text: Optional[str] = None

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
        if self._text is None:
            clauses = " ".join(repr(m) for m in self.matches)
            text = f"{clauses} {self.target!r}".strip()
            if self.comment:
                text += f"  # {self.comment}"
            self._text = text
        return self._text


class HookSite:
    """The built-in chains one dispatch crosses, and whether it is quiet.

    While ``quiet`` (every chain empty, policy ACCEPT) the caller skips
    the walk and adds one to ``crossings``, which each chain's
    ``policy_packets`` includes.  User chains share :data:`_NO_SITE`.
    """

    __slots__ = ("chains", "quiet", "crossings")

    def __init__(self, chains: Tuple[Chain, ...]):
        self.chains = chains
        self.crossings = 0
        for chain in chains:
            chain._site = self
        self.refresh()

    def refresh(self) -> None:
        """Re-derive ``quiet`` after a write to one of the chains."""
        self.quiet = True
        for chain in self.chains:
            if chain.rules or chain._policy is not Verdict.ACCEPT:
                self.quiet = False


_NO_SITE = HookSite(())


class Chain:
    """An ordered rule list with an optional default policy.

    Built-in chains have an ACCEPT/DROP policy; user-defined chains
    have ``policy=None`` and fall back to the caller (implicit RETURN).
    Every ``-A``/``-I``/``-D``/``-F``/``-P`` refreshes its :class:`HookSite`.
    """

    def __init__(self, name: str, policy: Optional[Verdict] = Verdict.ACCEPT):
        self.name = name
        self._policy = policy
        self.rules: List[Rule] = []
        self._policy_packets = 0
        self._site = _NO_SITE

    @property
    def policy(self) -> Optional[Verdict]:
        """The verdict for packets that reach the end of the chain."""
        return self._policy

    @policy.setter
    def policy(self, verdict: Optional[Verdict]) -> None:
        self._policy = verdict
        self._site.refresh()

    @property
    def policy_packets(self) -> int:
        """Packets that got the policy, quiet crossings of the site included."""
        return self._policy_packets + self._site.crossings

    def append(self, rule: Rule) -> None:
        """Add a rule at the end (``-A``)."""
        self.rules.append(rule)
        self._site.refresh()

    def insert(self, rule: Rule, index: int = 0) -> None:
        """Add a rule at ``index`` (``-I``; 0-based, default head)."""
        self.rules.insert(index, rule)
        self._site.refresh()

    def delete(self, rule: Rule) -> None:
        """Remove a specific rule object (``-D``)."""
        try:
            self.rules.remove(rule)
        except ValueError as exc:
            raise ValueError(f"rule not in chain {self.name}: {rule!r}") from exc
        self._site.refresh()

    def flush(self) -> None:
        """Drop all rules (``-F``)."""
        self.rules.clear()
        self._site.refresh()

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
        if self._policy is not None:
            self._policy_packets += 1
            return self._policy
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
        #: A :class:`HookSite` per place IPStack dispatches: each hook,
        #: but OUTPUT's two tables apart (see :meth:`run_chain`).
        self.prerouting = HookSite(self._hook_chains[HOOK_PREROUTING])
        self.input = HookSite(self._hook_chains[HOOK_INPUT])
        self.forward = HookSite(self._hook_chains[HOOK_FORWARD])
        self.postrouting = HookSite(self._hook_chains[HOOK_POSTROUTING])
        self.mangle_output = HookSite((self.tables["mangle"].chains[HOOK_OUTPUT],))
        self.filter_output = HookSite((self.tables["filter"].chains[HOOK_OUTPUT],))
        self.dropped = 0
        #: optional :class:`~repro.obs.MetricsRegistry`; when bound, the
        #: dispatcher counts marked and dropped packets per slice xid.
        self.metrics = None
        # Per-xid counter names, built once per (kind, xid) so the
        # per-packet hot path hands the registry a ready-made string
        # (metric-name lint rule: no runtime string building per event).
        self._xid_counter_names: Dict[Tuple[str, int], Tuple[str, str]] = {}

    def _count_xid(self, metrics: Any, kind: str, xid: int) -> None:
        """Bump ``netfilter.<kind>`` and ``netfilter.<kind>.xid.<xid>``."""
        names = self._xid_counter_names.get((kind, xid))
        if names is None:
            family = "netfilter." + kind
            names = self._xid_counter_names[kind, xid] = (family, family + ".xid." + str(xid))
        for name in names:
            metrics.counter(name).inc()

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
        """Run every table registered at ``hook``; False means DROP."""
        return self._run(self._hook_chains[hook], hook, packet, in_iface, out_iface, now)

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

        A mark change is noted only when a metrics registry is bound.
        """
        ctx = PacketContext(packet, hook, in_iface, out_iface, now)
        mark_before = packet.mark
        for chain in chains:
            if chain.traverse(ctx) is Verdict.DROP:
                self.dropped += 1
                if self.metrics is not None:
                    self._count_xid(self.metrics, "dropped", packet.xid)
                return False
        if self.metrics is not None and packet.mark != mark_before:
            self._count_xid(self.metrics, "marked", packet.xid)
        return True
