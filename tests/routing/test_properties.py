"""Property tests: LPM against a brute-force reference implementation."""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.table import Route, RoutingTable


def brute_force_lookup(routes, dst):
    """The specification: longest matching prefix, lowest metric, then
    the earliest installed route."""
    best = None
    for route in routes:
        if dst not in route.prefix:
            continue
        if best is None:
            best = route
        elif route.prefix.prefixlen > best.prefix.prefixlen:
            best = route
        elif route.prefix.prefixlen == best.prefix.prefixlen and route.metric < best.metric:
            best = route
    return best


prefixes = st.builds(
    lambda addr, plen: ipaddress.IPv4Network((addr & (2**32 - 2**(32 - plen)), plen)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)

routes_strategy = st.lists(
    st.builds(
        lambda prefix, dev, metric: Route(prefix, dev, metric=metric),
        prefixes,
        st.sampled_from(["eth0", "eth1", "ppp0"]),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=20,
)

addresses = st.builds(
    ipaddress.IPv4Address, st.integers(min_value=0, max_value=2**32 - 1)
)


@given(routes_strategy, addresses)
@settings(max_examples=200)
def test_lookup_matches_brute_force(routes, dst):
    table = RoutingTable("t")
    for route in routes:
        try:
            table.add(route)
        except ValueError:
            continue  # duplicate key generated; spec keeps the first
    found = table.lookup(dst)
    # Identity, not just equal prefixlen/metric: a tie must go to the
    # same (earliest installed) route the reference picks.
    assert found is brute_force_lookup(list(table), dst)


@given(routes_strategy, addresses)
@settings(max_examples=100)
def test_lookup_result_always_matches_destination(routes, dst):
    table = RoutingTable("t")
    for route in routes:
        try:
            table.add(route)
        except ValueError:
            continue
    found = table.lookup(dst)
    if found is not None:
        assert dst in found.prefix


@given(routes_strategy, addresses, st.sampled_from(["eth0", "eth1", "ppp0"]))
@settings(max_examples=100)
def test_oif_constraint_property(routes, dst, oif):
    table = RoutingTable("t")
    for route in routes:
        try:
            table.add(route)
        except ValueError:
            continue
    found = table.lookup(dst, oif=oif)
    if found is not None:
        assert found.dev == oif
    else:
        # No route through oif should match dst.
        assert all(
            not (dst in r.prefix and r.dev == oif) for r in table
        )
