"""Differential test: the RPDB against a brute-force reference.

The reference walks the rules in preference order, matches source
prefixes with :mod:`ipaddress` ``in`` and takes each table's route
from the brute-force longest-prefix match of ``test_properties``, the
way the routing code worked before it compared integer prefixes.
Random rule sets, tables and packets must get back the very same
:class:`Route` object from both.

The other tests check the decision cache: random sequences of route
and rule writes, interleaved with repeated lookups of a few keys, must
answer every lookup the way a fresh walk over the current rules and
tables does, and so must a lookup after one write of each kind.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.rpdb import RoutingPolicyDatabase, Rule
from repro.routing.table import Route
from tests.routing.test_properties import brute_force_lookup

TABLES = ["main", "default", "umts", "lab"]
DEVS = ["eth0", "eth1", "ppp0"]
IFACES = [None, "eth0", "ppp0"]

# Half the addresses come from one /24 so prefixes and rules hit often.
address_ints = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0x0A000000, max_value=0x0A0000FF),
)
addresses = st.builds(ipaddress.IPv4Address, address_ints)
prefixes = st.builds(
    lambda addr, plen: ipaddress.IPv4Network((addr & (2**32 - 2 ** (32 - plen)), plen)),
    address_ints,
    st.integers(min_value=0, max_value=32),
)
routes = st.tuples(
    st.sampled_from(TABLES),
    prefixes,
    st.sampled_from(DEVS),
    st.integers(min_value=0, max_value=2),
)
rules = st.tuples(
    st.sampled_from([5, 100, 101, 200, 32766]),
    # "ghost" is never created: a rule pointing at it must fall through.
    st.sampled_from(TABLES + ["ghost"]),
    st.none() | prefixes,
    st.none() | st.integers(min_value=0, max_value=3),
    st.sampled_from(IFACES),
)


def reference_lookup(rules_in_order, tables, dst, src, mark, iif, oif):
    """First rule whose selector matches and whose table has a route."""
    for rule in rules_in_order:
        if rule.src is not None and (src is None or src not in rule.src):
            continue
        if rule.fwmark is not None and mark != rule.fwmark:
            continue
        if rule.iif is not None and iif != rule.iif:
            continue
        candidates = [r for r in tables.get(rule.table, []) if oif is None or r.dev == oif]
        best = brute_force_lookup(candidates, dst)
        if best is not None:
            return best
    return None


@given(
    st.lists(routes, max_size=16),
    st.lists(rules, max_size=6),
    addresses,
    st.none() | addresses,
    st.integers(min_value=0, max_value=3),
    st.sampled_from(IFACES),
    st.sampled_from([None] + DEVS),
)
@settings(max_examples=300, deadline=None)
def test_rpdb_lookup_matches_reference(route_specs, rule_specs, dst, src, mark, iif, oif):
    rpdb = RoutingPolicyDatabase()
    installed = {name: [] for name in ("main", "default")}
    for table, prefix, dev, metric in route_specs:
        route = Route(prefix, dev, metric=metric)
        try:
            rpdb.table(table).add(route)
        except ValueError:
            continue  # duplicate key: the first install stays
        installed.setdefault(table, []).append(route)
    # Boot rules first, then each accepted rule; a stable sort by
    # preference keeps install order among equal preferences.
    accepted = list(rpdb.rules())
    for pref, table, src_prefix, fwmark, rule_iif in rule_specs:
        rule = Rule(pref, table, src=src_prefix, fwmark=fwmark, iif=rule_iif)
        try:
            rpdb.add_rule(rule)
        except ValueError:
            continue
        accepted.append(rule)
    accepted.sort(key=lambda r: r.pref)
    found = rpdb.lookup(dst, src=src, mark=mark, iif=iif, oif=oif)
    assert found is reference_lookup(accepted, installed, dst, src, mark, iif, oif)


USER_TABLES = ["umts", "lab"]

# Few, overlapping addresses and prefixes, so that most writes change
# the answer for some key and a stale cached answer shows.
near_addresses = st.sampled_from(
    [ipaddress.IPv4Address(a) for a in ("10.0.0.1", "10.0.0.77", "10.0.1.5", "192.0.2.9")]
)
near_prefixes = st.sampled_from(
    [
        ipaddress.IPv4Network(p)
        for p in ("0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/24", "10.0.0.0/25", "10.0.0.77/32")
    ]
)
near_routes = st.tuples(
    st.sampled_from(TABLES), near_prefixes, st.sampled_from(DEVS), st.integers(0, 1)
)
near_rules = st.tuples(
    st.sampled_from([5, 100, 200]),
    st.sampled_from(USER_TABLES + ["main", "ghost"]),
    st.none() | near_prefixes,
    st.none() | st.just(1),
    st.sampled_from([None, "eth0"]),
)
lookup_keys = st.tuples(
    near_addresses,
    st.none() | near_addresses,
    st.integers(min_value=0, max_value=1),
    st.sampled_from([None, "eth0"]),
    st.sampled_from([None] + DEVS),
)
writes = st.one_of(
    st.tuples(st.just("add"), near_routes, st.booleans()),
    st.tuples(st.just("add_rule"), near_rules),
    # Deletes the nth route of a table, by prefix alone or with its dev.
    st.tuples(st.just("delete"), st.sampled_from(TABLES), st.integers(0, 15), st.booleans()),
    st.tuples(st.just("flush"), st.sampled_from(TABLES)),
    st.tuples(st.just("purge_dev"), st.sampled_from(DEVS)),
    st.tuples(
        st.just("delete_rule"),
        st.none() | st.sampled_from([5, 100, 200]),
        st.none() | st.sampled_from(TABLES + ["ghost"]),
    ),
    st.tuples(st.just("drop_table"), st.sampled_from(USER_TABLES)),
)


def current_state(rpdb):
    """The RPDB's rules and existing tables, read without writing."""
    tables = {name: list(rpdb.table(name)) for name in TABLES if rpdb.has_table(name)}
    return rpdb.rules(), tables


def apply_write(rpdb, op):
    """One configuration write; writes the RPDB refuses are skipped."""
    kind = op[0]
    try:
        if kind == "add":
            (table, prefix, dev, metric), replace = op[1], op[2]
            rpdb.table(table).add(Route(prefix, dev, metric=metric), replace=replace)
        elif kind == "delete":
            _, name, nth, with_dev = op
            installed = list(rpdb.table(name)) if rpdb.has_table(name) else []
            if installed:
                route = installed[nth % len(installed)]
                rpdb.table(name).delete(route.prefix, dev=route.dev if with_dev else None)
        elif kind == "flush":
            if rpdb.has_table(op[1]):
                rpdb.table(op[1]).flush()
        elif kind == "purge_dev":
            rpdb.purge_dev(op[1])
        elif kind == "add_rule":
            pref, table, src_prefix, fwmark, rule_iif = op[1]
            rpdb.add_rule(Rule(pref, table, src=src_prefix, fwmark=fwmark, iif=rule_iif))
        elif kind == "delete_rule":
            rpdb.delete_rule(pref=op[1], table=op[2])
        else:
            rpdb.drop_table(op[1])
    except ValueError:
        pass


@given(
    # A populated start, so that every kind of write has something to change.
    st.lists(st.tuples(st.just("add"), near_routes, st.just(False)), max_size=12),
    st.lists(st.tuples(st.just("add_rule"), near_rules), max_size=4),
    st.lists(lookup_keys, min_size=2, max_size=6),
    st.lists(writes, min_size=1, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_cached_lookups_follow_every_write(initial_routes, initial_rules, keys, writes_in_order):
    rpdb = RoutingPolicyDatabase()
    for op in initial_routes + initial_rules:
        apply_write(rpdb, op)
    for op in [None] + writes_in_order:
        if op is not None:
            apply_write(rpdb, op)
        rules_now, tables_now = current_state(rpdb)
        for dst, src, mark, iif, oif in keys:
            want = reference_lookup(rules_now, tables_now, dst, src, mark, iif, oif)
            # A miss, then a cached hit, then the same key as text.
            assert rpdb.lookup(dst, src=src, mark=mark, iif=iif, oif=oif) is want
            assert rpdb.lookup(dst, src=src, mark=mark, iif=iif, oif=oif) is want
            text_src = None if src is None else str(src)
            assert rpdb.lookup(str(dst), text_src, mark=mark, iif=iif, oif=oif) is want


#: One write of each kind, each of which changes the answer for
#: ``10.0.0.5`` with mark 1 in the configuration ``steered()`` builds.
ANSWER_CHANGING_WRITES = {
    "route add": lambda rpdb: rpdb.table("umts").add(Route("10.0.0.0/25", "ppp0")),
    "route replace": lambda rpdb: rpdb.table("umts").add(
        Route("10.0.0.0/24", "ppp0"), replace=True
    ),
    "route delete": lambda rpdb: rpdb.table("umts").delete("10.0.0.0/24"),
    "table flush": lambda rpdb: rpdb.table("umts").flush(),
    "purge_dev": lambda rpdb: rpdb.purge_dev("ppp0"),
    "add_rule": lambda rpdb: rpdb.add_rule(Rule(50, "lab")),
    "delete_rule": lambda rpdb: rpdb.delete_rule(pref=100),
    "drop_table": lambda rpdb: rpdb.drop_table("umts"),
}


def steered():
    """Marked traffic to 10.0.0.0/24 leaves by ppp0; the rest by eth0."""
    rpdb = RoutingPolicyDatabase()
    rpdb.main.add(Route("default", "eth0"))
    rpdb.table("umts").add(Route("10.0.0.0/24", "ppp0"))
    rpdb.table("lab").add(Route("10.0.0.0/24", "eth1"))
    rpdb.add_rule(Rule(100, "umts", fwmark=1))
    return rpdb


@pytest.mark.parametrize("write", sorted(ANSWER_CHANGING_WRITES))
def test_each_write_kind_empties_the_decision_cache(write):
    rpdb = steered()
    dst = ipaddress.IPv4Address("10.0.0.5")
    before = rpdb.lookup(dst, mark=1)
    assert before is rpdb.lookup(dst, mark=1)
    ANSWER_CHANGING_WRITES[write](rpdb)
    rules_now, tables_now = current_state(rpdb)
    want = reference_lookup(rules_now, tables_now, dst, None, 1, None, None)
    assert want is not before
    assert rpdb.lookup(dst, mark=1) is want
