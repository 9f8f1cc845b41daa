"""Differential test: the hook dispatcher against a reference traversal.

The reference builds a :class:`PacketContext` for every chain it
crosses and interprets matches, rules, targets and policies itself,
the way the dispatcher worked before empty chains got their one-check
fast path and quiet hooks their early exit.  It tests addresses with
:mod:`ipaddress` ``in`` rather than the matches' integer prefixes.
Random rule sets, with every match kind plain and inverted and some
empty chains under a DROP policy, run through both on twin
:class:`Netfilter` instances must give the same verdicts, packet
marks, rule counters and policy counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.netfilter.chains import (
    HOOK_TABLE_ORDER,
    TABLE_CHAINS,
    Netfilter,
    PacketContext,
    Rule,
)
from repro.net.addressing import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.netfilter.matches import (
    DestinationMatch,
    DportMatch,
    InInterfaceMatch,
    MarkMatch,
    OutInterfaceMatch,
    ProtocolMatch,
    SourceMatch,
    SportMatch,
    XidMatch,
)
from repro.netfilter.targets import (
    AcceptTarget,
    DropTarget,
    JumpTarget,
    MarkTarget,
    Verdict,
)

BUILTIN = [(table, hook) for table, hooks in TABLE_CHAINS.items() for hook in hooks]
USER_CHAIN = "steer"
IFACES = [None, "eth0", "ppp0"]
DESTINATIONS = ["10.0.0.1", "10.0.0.2", "138.96.250.100", "143.225.229.3"]
SOURCES = ["0.0.0.0", "10.0.0.2", "10.0.0.9", "192.168.1.5"]
PROTOCOLS = [PROTO_ICMP, PROTO_TCP, PROTO_UDP]
SPORTS = [5000, 8999]
DPORTS = [53, 9000]

matches = st.one_of(
    st.tuples(st.just("d"), st.sampled_from(["10.0.0.0/24", "138.96.250.100", "0.0.0.0/0"])),
    st.tuples(st.just("s"), st.sampled_from(["10.0.0.0/24", "10.0.0.2", "192.168.0.0/16"])),
    st.tuples(st.just("p"), st.sampled_from(PROTOCOLS)),
    st.tuples(st.just("i"), st.sampled_from(["eth0", "ppp0"])),
    st.tuples(st.just("o"), st.sampled_from(["eth0", "ppp0"])),
    st.tuples(st.just("sport"), st.sampled_from(SPORTS)),
    st.tuples(st.just("dport"), st.sampled_from(DPORTS)),
    st.tuples(st.just("xid"), st.sampled_from([0, 510])),
    st.tuples(st.just("mark"), st.integers(min_value=0, max_value=2)),
)
targets = st.one_of(
    st.tuples(st.just("MARK"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.sampled_from(["ACCEPT", "DROP", "JUMP"]), st.none()),
)
rules = st.tuples(st.lists(st.tuples(matches, st.booleans()), max_size=2), targets)
rule_sets = st.fixed_dictionaries(
    {
        "builtin": st.lists(st.tuples(st.sampled_from(BUILTIN), rules), max_size=8),
        # User chains never jump, so traversal always terminates.
        "user": st.lists(
            st.tuples(st.sampled_from(list(TABLE_CHAINS)), rules).filter(
                lambda spec: spec[1][1][0] != "JUMP"
            ),
            max_size=3,
        ),
        "drop_policies": st.sets(st.sampled_from(BUILTIN), max_size=2),
        # Chains emptied under a DROP policy: a quiet-hook exit must
        # not skip them.
        "empty_drops": st.sets(st.sampled_from(BUILTIN), max_size=2),
    }
)
calls = st.lists(
    st.tuples(
        # None: the whole hook (run_hook); a table name: run_chain.
        st.sampled_from(list(HOOK_TABLE_ORDER)),
        st.sampled_from([None, "mangle", "filter"]),
        st.sampled_from(DESTINATIONS),
        st.sampled_from(SOURCES),
        st.sampled_from(PROTOCOLS),
        st.sampled_from(SPORTS),
        st.sampled_from(DPORTS),
        st.sampled_from([0, 510]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1472),
        st.sampled_from(IFACES),
        st.sampled_from(IFACES),
    ),
    min_size=1,
    max_size=8,
)


MATCH_KINDS = {
    "d": DestinationMatch,
    "s": SourceMatch,
    "p": ProtocolMatch,
    "i": InInterfaceMatch,
    "o": OutInterfaceMatch,
    "sport": SportMatch,
    "dport": DportMatch,
    "xid": XidMatch,
    "mark": MarkMatch,
}


def make_match(spec):
    (kind, value), invert = spec
    return MATCH_KINDS[kind](value, invert=invert)


def reference_match(match, ctx):
    """The match's condition from its public fields, then its ``!``."""
    packet = ctx.packet
    if isinstance(match, DestinationMatch):
        hit = packet.dst in match.prefix
    elif isinstance(match, SourceMatch):
        hit = packet.src in match.prefix
    elif isinstance(match, ProtocolMatch):
        hit = packet.proto == match.proto
    elif isinstance(match, InInterfaceMatch):
        hit = ctx.in_iface == match.name
    elif isinstance(match, OutInterfaceMatch):
        hit = ctx.out_iface == match.name
    elif isinstance(match, SportMatch):
        hit = packet.sport == match.port
    elif isinstance(match, DportMatch):
        hit = packet.dport == match.port
    elif isinstance(match, XidMatch):
        hit = packet.xid == match.xid
    else:
        hit = packet.mark & match.mask == match.mark & match.mask
    return not hit if match.invert else hit


def build(rule_sets):
    """A fresh Netfilter holding the described rules and policies."""
    netfilter = Netfilter()
    for table in TABLE_CHAINS:
        netfilter.table(table).new_chain(USER_CHAIN)

    def add(table, chain, spec):
        match_specs, (kind, value) = spec
        if kind == "MARK":
            target = MarkTarget(value)
        elif kind == "JUMP":
            target = JumpTarget(netfilter.table(table).chain(USER_CHAIN))
        else:
            target = AcceptTarget() if kind == "ACCEPT" else DropTarget()
        netfilter.table(table).chain(chain).append(
            Rule([make_match(m) for m in match_specs], target)
        )

    for table, spec in rule_sets["user"]:
        add(table, USER_CHAIN, spec)
    for (table, hook), spec in rule_sets["builtin"]:
        add(table, hook, spec)
    for table, hook in rule_sets["drop_policies"]:
        netfilter.table(table).chain(hook).policy = Verdict.DROP
    for table, hook in rule_sets["empty_drops"]:
        netfilter.table(table).chain(hook).flush()
        netfilter.table(table).chain(hook).policy = Verdict.DROP
    return netfilter


def reference_traverse(chain, ctx):
    """Verdict of one chain, or None when a user chain falls through."""
    for rule in chain.rules:
        if not all(reference_match(match, ctx) for match in rule.matches):
            continue
        rule.packets += 1
        rule.bytes += ctx.packet.length
        target = rule.target
        if isinstance(target, MarkTarget):
            ctx.packet.mark = target.mark
        elif isinstance(target, JumpTarget):
            verdict = reference_traverse(target.chain, ctx)
            if verdict is not None:
                return verdict
        else:
            return Verdict.ACCEPT if isinstance(target, AcceptTarget) else Verdict.DROP
    if chain.policy is None:
        return None
    chain.policy_packets += 1
    return chain.policy


def reference_run(netfilter, hook, table, packet, in_iface, out_iface):
    """One hook (``table`` None) or one table's chain; False is DROP."""
    for name in HOOK_TABLE_ORDER[hook] if table is None else [table]:
        chain = netfilter.tables[name].chains.get(hook)
        if chain is None:
            continue
        ctx = PacketContext(packet, hook, in_iface=in_iface, out_iface=out_iface, now=0.0)
        if reference_traverse(chain, ctx) == Verdict.DROP:
            netfilter.dropped += 1
            return False
    return True


def counters(netfilter):
    return [
        (table.name, chain.name, chain.policy_packets, [(r.packets, r.bytes) for r in chain.rules])
        for table in netfilter.tables.values()
        for chain in table.chains.values()
    ]


@given(rule_sets, calls)
@settings(max_examples=300, deadline=None)
def test_hook_dispatch_matches_reference(rule_sets, calls):
    fast, reference = build(rule_sets), build(rule_sets)
    for hook, table, dst, src, proto, sport, dport, xid, mark, size, in_iface, out_iface in calls:
        fields = dict(src=src, proto=proto, sport=sport, dport=dport, size=size, xid=xid)
        got_packet = Packet(dst, **fields)
        want_packet = Packet(dst, **fields)
        got_packet.mark = want_packet.mark = mark
        if table is None:
            got = fast.run_hook(hook, got_packet, in_iface=in_iface, out_iface=out_iface, now=0.0)
        else:
            got = fast.run_chain(
                table, hook, got_packet, in_iface=in_iface, out_iface=out_iface, now=0.0
            )
        want = reference_run(reference, hook, table, want_packet, in_iface, out_iface)
        assert got == want
        assert got_packet.mark == want_packet.mark
    assert counters(fast) == counters(reference)
    assert fast.dropped == reference.dropped
