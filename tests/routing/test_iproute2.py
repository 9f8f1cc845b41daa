"""Unit tests for the ip command facade (typed API and string parser)."""

import pytest

from repro.routing.iproute2 import IpRoute2, IpRouteError
from repro.routing.rpdb import RoutingPolicyDatabase


@pytest.fixture()
def ipr():
    return IpRoute2(RoutingPolicyDatabase())


def test_route_add_and_lookup(ipr):
    ipr.route_add("143.225.229.0/24", "eth0")
    ipr.route_add("default", "eth0", via="143.225.229.1")
    route = ipr.rpdb.lookup("8.8.8.8")
    assert route.dev == "eth0"
    assert str(route.via) == "143.225.229.1"


def test_route_add_to_user_table(ipr):
    ipr.route_add("default", "ppp0", table="umts")
    assert len(ipr.route_list("umts")) == 1
    assert len(ipr.route_list("main")) == 0


def test_route_del(ipr):
    ipr.route_add("default", "eth0")
    ipr.route_del("default", table="main")
    assert ipr.route_list() == []


def test_route_del_missing_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.route_del("default")


def test_rule_add_and_del(ipr):
    ipr.rule_add("umts", 100, fwmark=1)
    assert any(r.fwmark == 1 for r in ipr.rule_list())
    assert ipr.rule_del(fwmark=1) == 1


def test_rule_add_duplicate_raises(ipr):
    ipr.rule_add("umts", 100, fwmark=1)
    with pytest.raises(IpRouteError):
        ipr.rule_add("umts", 100, fwmark=1)


def test_string_route_add_with_table(ipr):
    ipr.run("ip route add default dev ppp0 table umts")
    routes = ipr.route_list("umts")
    assert len(routes) == 1
    assert routes[0].dev == "ppp0"
    assert routes[0].prefix.prefixlen == 0


def test_string_route_add_via(ipr):
    ipr.run("route add default via 143.225.229.1 dev eth0")
    route = ipr.rpdb.lookup("8.8.8.8")
    assert str(route.via) == "143.225.229.1"


def test_string_route_replace(ipr):
    ipr.run("route add default dev eth0")
    ipr.run("route replace default dev eth0")
    assert len(ipr.route_list()) == 1


def test_string_route_del(ipr):
    ipr.run("route add default dev ppp0 table umts")
    ipr.run("route del default dev ppp0 table umts")
    assert ipr.route_list("umts") == []


def test_string_route_flush_table(ipr):
    ipr.run("route add default dev ppp0 table umts")
    ipr.run("route flush table umts")
    assert ipr.route_list("umts") == []


def test_string_rule_add_fwmark(ipr):
    ipr.run("rule add fwmark 0x1 lookup umts pref 100")
    rule = [r for r in ipr.rule_list() if r.table == "umts"][0]
    assert rule.fwmark == 1
    assert rule.pref == 100


def test_string_rule_add_from(ipr):
    ipr.run("rule add from 10.199.3.7 lookup umts pref 101")
    rule = [r for r in ipr.rule_list() if r.table == "umts"][0]
    assert str(rule.src) == "10.199.3.7/32"


def test_string_rule_del(ipr):
    ipr.run("rule add fwmark 1 lookup umts pref 100")
    ipr.run("rule del fwmark 1")
    assert all(r.table != "umts" for r in ipr.rule_list())


def test_history_records_commands(ipr):
    ipr.run("route add default dev eth0")
    ipr.run("rule add fwmark 1 lookup umts pref 100")
    assert len(ipr.history) == 2
    assert "route add" in ipr.history[0]


def test_unsupported_object_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.run("link set ppp0 up")


def test_unsupported_route_option_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.run("route add default dev eth0 nexthop whatever")


def test_route_add_without_dev_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.run("route add default table umts")


def test_short_command_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.run("route")


def test_dangling_token_raises(ipr):
    with pytest.raises(IpRouteError):
        ipr.run("route add default dev")


@pytest.mark.parametrize(
    "command",
    [
        "route add 10.0.0.0/33 dev eth0",
        "rule add fwmark zz lookup umts pref 100",
        "rule add fwmark 0x1 lookup umts pref x",
        "rule add from 1.2.3.999 lookup umts pref 100",
        "route add default dev 'ppp0",
    ],
)
def test_malformed_line_raises_iproute_error(ipr, command):
    rules_before = ipr.rule_list()
    with pytest.raises(IpRouteError) as caught:
        ipr.run(command)
    assert isinstance(caught.value.__cause__, ValueError)
    assert ipr.history == [command]
    assert ipr.rule_list() == rules_before
    assert ipr.route_list() == []


def test_rule_from_all(ipr):
    ipr.run("rule add from all lookup umts pref 99")
    rule = [r for r in ipr.rule_list() if r.pref == 99][0]
    assert rule.src is None


def test_route_del_with_via_filter(ipr):
    ipr.route_add("default", "eth0", via="10.0.0.1")
    ipr.route_add("default", "eth0", via="10.0.0.2", metric=5)
    ipr.route_del("default", via="10.0.0.1")
    remaining = ipr.route_list()
    assert len(remaining) == 1
    assert str(remaining[0].via) == "10.0.0.2"


def test_string_rule_del_by_pref_only(ipr):
    ipr.run("rule add fwmark 1 lookup umts pref 100")
    ipr.run("rule del pref 100")
    assert all(r.pref != 100 for r in ipr.rule_list())


def test_string_route_add_with_src_and_metric(ipr):
    ipr.run("route add 10.0.0.0/8 dev eth0 src 10.0.0.9 metric 7")
    route = ipr.route_list()[0]
    assert str(route.src) == "10.0.0.9"
    assert route.metric == 7
