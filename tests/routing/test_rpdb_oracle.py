"""Differential test: the RPDB against a brute-force reference.

The reference walks the rules in preference order, matches source
prefixes with :mod:`ipaddress` ``in`` and takes each table's route
from the brute-force longest-prefix match of ``test_properties``, the
way the routing code worked before it compared integer prefixes.
Random rule sets, tables and packets must get back the very same
:class:`Route` object from both.
"""

import ipaddress

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
