"""Differential test: the hook dispatcher against a reference traversal.

The reference builds a :class:`PacketContext` for every chain it
crosses, ignores the quiet flags and interprets matches, rules,
targets and policies itself.  It tests addresses with
:mod:`ipaddress` ``in`` rather than the matches' integer prefixes, and
keeps its own policy counters.  Random rule sets, with every match
kind plain and inverted and some empty chains under a DROP policy,
run through both on twin :class:`Netfilter` instances.  Packets are
interleaved with ``-A``/``-I``/``-D``/``-F``/``-P`` writes, made
through :class:`Iptables` (command text or typed calls) or the
:class:`Chain` methods, and the fast twin is dispatched the way
:class:`~repro.net.IPStack` does it: the site's quiet flag first, the
walk only when the site has work.  Both must give the same verdicts,
packet marks, rule counters and policy counters, and every quiet flag
must say whether its chains are all empty with an ACCEPT policy.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet
from repro.netfilter.chains import (
    HOOK_FORWARD,
    HOOK_INPUT,
    HOOK_OUTPUT,
    HOOK_POSTROUTING,
    HOOK_PREROUTING,
    HOOK_TABLE_ORDER,
    TABLE_CHAINS,
    Netfilter,
    PacketContext,
    Rule,
)
from repro.netfilter.iptables import Iptables
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
packets = st.tuples(
    st.just("packet"),
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
)
# A write: (operation, (table, chain), argument, through iptables text?).
# ``-F`` with chain None flushes the whole table.
writes = st.one_of(
    st.tuples(st.just("-A"), st.sampled_from(BUILTIN), rules, st.booleans()),
    st.tuples(
        st.just("-I"),
        st.sampled_from(BUILTIN),
        st.tuples(rules, st.integers(min_value=0, max_value=3)),
        st.booleans(),
    ),
    st.tuples(
        st.just("-D"),
        st.sampled_from(BUILTIN),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    st.tuples(
        st.just("-F"),
        st.sampled_from(BUILTIN + [(table, None) for table in TABLE_CHAINS]),
        st.none(),
        st.booleans(),
    ),
    st.tuples(
        st.just("-P"),
        st.sampled_from(BUILTIN),
        st.sampled_from(["ACCEPT", "DROP"]),
        st.booleans(),
    ),
)
steps = st.lists(st.one_of(packets, writes), min_size=1, max_size=16)

#: The sites IPStack tests before it dispatches, by (hook, table).
SITES = {
    (HOOK_PREROUTING, None): "prerouting",
    (HOOK_INPUT, None): "input",
    (HOOK_FORWARD, None): "forward",
    (HOOK_POSTROUTING, None): "postrouting",
    (HOOK_OUTPUT, "mangle"): "mangle_output",
    (HOOK_OUTPUT, "filter"): "filter_output",
}
OPTIONS = {
    "d": "-d",
    "s": "-s",
    "p": "-p",
    "i": "-i",
    "o": "-o",
    "sport": "--sport",
    "dport": "--dport",
    "xid": "-m xid --xid",
    "mark": "-m mark --mark",
}
PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}


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


def make_rule(netfilter, table, spec):
    """A Rule for ``netfilter``; JUMP targets its table's user chain."""
    match_specs, (kind, value) = spec
    if kind == "MARK":
        target = MarkTarget(value)
    elif kind == "JUMP":
        target = JumpTarget(netfilter.table(table).chain(USER_CHAIN))
    else:
        target = AcceptTarget() if kind == "ACCEPT" else DropTarget()
    return Rule([make_match(m) for m in match_specs], target)


def rule_text(spec):
    """The iptables clauses of a non-JUMP rule spec."""
    match_specs, (kind, value) = spec
    words = []
    for (match, argument), invert in match_specs:
        if invert:
            words.append("!")
        words += [OPTIONS[match], PROTO_NAMES[argument] if match == "p" else str(argument)]
    words += ["-j", kind] + (["--set-mark", str(value)] if kind == "MARK" else [])
    return " ".join(words)


def build(rule_sets):
    """A fresh Netfilter holding the described rules and policies."""
    netfilter = Netfilter()
    for table in TABLE_CHAINS:
        netfilter.table(table).new_chain(USER_CHAIN)
    for table, spec in rule_sets["user"]:
        netfilter.table(table).chain(USER_CHAIN).append(make_rule(netfilter, table, spec))
    for (table, hook), spec in rule_sets["builtin"]:
        netfilter.table(table).chain(hook).append(make_rule(netfilter, table, spec))
    for table, hook in rule_sets["drop_policies"]:
        netfilter.table(table).chain(hook).policy = Verdict.DROP
    for table, hook in rule_sets["empty_drops"]:
        netfilter.table(table).chain(hook).flush()
        netfilter.table(table).chain(hook).policy = Verdict.DROP
    return netfilter


def write(netfilter, ipt, texts, step):
    """Apply one write; ``texts`` remembers the clauses of text-made rules."""
    op, (table, name), argument, as_text = step
    chain = None if name is None else netfilter.table(table).chain(name)
    if op in ("-A", "-I"):
        spec, index = (argument, 0) if op == "-A" else argument
        if as_text and spec[1][0] != "JUMP":
            where = name if op == "-A" else f"{name} {index + 1}"
            rule = ipt.run(f"iptables -t {table} {op} {where} {rule_text(spec)}")
            texts[rule] = rule_text(spec)
        elif op == "-A":
            chain.append(make_rule(netfilter, table, spec))
        else:
            chain.insert(make_rule(netfilter, table, spec), index)
    elif op == "-D":
        if not chain.rules:
            return
        rule = chain.rules[argument % len(chain.rules)]
        if not as_text:
            chain.delete(rule)
        elif rule in texts:
            ipt.run(f"iptables -t {table} -D {name} {texts[rule]}")
        else:
            ipt.delete(table, name, rule)
    elif op == "-F":
        if as_text:
            ipt.run(f"iptables -t {table} -F" + ("" if name is None else f" {name}"))
        else:
            for each in netfilter.table(table).chains.values() if chain is None else [chain]:
                each.flush()
    elif as_text:
        ipt.run(f"iptables -t {table} -P {name} {argument}")
    else:
        chain.policy = Verdict(argument)


def dispatch(netfilter, hook, table, packet, in_iface, out_iface):
    """Run one packet the way IPStack does: a quiet site only counts it."""
    name = SITES.get((hook, table))
    if name is not None:
        site = getattr(netfilter, name)
        if site.quiet:
            site.crossings += 1
            return True
    if table is None:
        return netfilter.run_hook(hook, packet, in_iface=in_iface, out_iface=out_iface, now=0.0)
    return netfilter.run_chain(
        table, hook, packet, in_iface=in_iface, out_iface=out_iface, now=0.0
    )


def reference_traverse(chain, ctx, hits):
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
            verdict = reference_traverse(target.chain, ctx, hits)
            if verdict is not None:
                return verdict
        else:
            return Verdict.ACCEPT if isinstance(target, AcceptTarget) else Verdict.DROP
    if chain.policy is None:
        return None
    hits[chain] += 1
    return chain.policy


def reference_run(netfilter, hits, hook, table, packet, in_iface, out_iface):
    """One hook (``table`` None) or one table's chain; False is DROP."""
    for name in HOOK_TABLE_ORDER[hook] if table is None else [table]:
        chain = netfilter.tables[name].chains.get(hook)
        if chain is None:
            continue
        ctx = PacketContext(packet, hook, in_iface=in_iface, out_iface=out_iface, now=0.0)
        if reference_traverse(chain, ctx, hits) == Verdict.DROP:
            netfilter.dropped += 1
            return False
    return True


def counters(netfilter, policy_count):
    return [
        (table.name, chain.name, policy_count(chain), [(r.packets, r.bytes) for r in chain.rules])
        for table in netfilter.tables.values()
        for chain in table.chains.values()
    ]


def quiet_flags(netfilter):
    return {name: getattr(netfilter, name).quiet for name in SITES.values()}


def expected_quiet(netfilter):
    """Per site: every chain it crosses is empty with an ACCEPT policy."""
    return {
        name: all(
            not netfilter.tables[t].chains[hook].rules
            and netfilter.tables[t].chains[hook].policy == Verdict.ACCEPT
            for t in (HOOK_TABLE_ORDER[hook] if table is None else [table])
        )
        for (hook, table), name in SITES.items()
    }


@given(rule_sets, steps)
@settings(max_examples=300, deadline=None)
def test_hook_dispatch_matches_reference(rule_sets, steps):
    fast, reference = build(rule_sets), build(rule_sets)
    twins = [(fast, Iptables(fast), {}), (reference, Iptables(reference), {})]
    hits = Counter()
    assert quiet_flags(fast) == expected_quiet(reference)
    for step in steps:
        if step[0] != "packet":
            for netfilter, ipt, texts in twins:
                write(netfilter, ipt, texts, step)
            assert quiet_flags(fast) == expected_quiet(reference)
            continue
        _, hook, table, dst, src, proto, sport, dport, xid, mark, size, in_iface, out_iface = step
        fields = dict(src=src, proto=proto, sport=sport, dport=dport, size=size, xid=xid)
        got_packet = Packet(dst, **fields)
        want_packet = Packet(dst, **fields)
        got_packet.mark = want_packet.mark = mark
        got = dispatch(fast, hook, table, got_packet, in_iface, out_iface)
        want = reference_run(reference, hits, hook, table, want_packet, in_iface, out_iface)
        assert got == want
        assert got_packet.mark == want_packet.mark
        assert counters(fast, lambda c: c.policy_packets) == counters(reference, hits.__getitem__)
    assert fast.dropped == reference.dropped


def test_drop_policy_set_then_reset_on_a_quiet_site():
    netfilter = Netfilter()
    ipt = Iptables(netfilter)
    packet = Packet("10.0.0.1")
    ipt.run("iptables -P FORWARD DROP")
    assert not netfilter.forward.quiet
    assert dispatch(netfilter, HOOK_FORWARD, None, packet, "eth0", "eth1") is False
    ipt.run("iptables -P FORWARD ACCEPT")
    assert netfilter.forward.quiet
    assert dispatch(netfilter, HOOK_FORWARD, None, packet, "eth0", "eth1") is True
    assert netfilter.forward.crossings == 1
    for table in ("mangle", "filter"):
        assert netfilter.table(table).chain(HOOK_FORWARD).policy_packets == 2
