"""Unit tests for the isolation manager's rule set."""

import pytest

from repro.core.isolation import (
    PREF_FWMARK_RULE,
    PREF_SRC_RULE,
    UMTS_FWMARK,
    UMTS_TABLE,
    IsolationManager,
)
from repro.net.interface import EthernetInterface, PPPInterface
from repro.net.packet import Packet
from repro.net.stack import IPStack
from repro.sim.engine import Simulator


@pytest.fixture()
def stack():
    sim = Simulator()
    stack = IPStack(sim, "node")
    eth = stack.add_interface(EthernetInterface("eth0"))
    stack.configure_interface(eth, "143.225.229.100", 24)
    stack.ip.route_add("default", "eth0", via="143.225.229.1")
    ppp = stack.add_interface(PPPInterface("ppp0"))
    ppp.configure_p2p("10.199.3.7", "10.199.0.1")
    return stack


def test_install_creates_table_rules_and_filter(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    assert iso.active
    routes = stack.ip.route_list(UMTS_TABLE)
    assert len(routes) == 1
    assert routes[0].dev == "ppp0"
    prefs = [r.pref for r in stack.ip.rule_list()]
    assert PREF_FWMARK_RULE in prefs and PREF_SRC_RULE in prefs
    drop_rules = stack.iptables.list_rules("filter", "OUTPUT")
    assert len(drop_rules) == 1


def test_double_install_rejected(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    with pytest.raises(RuntimeError):
        iso.install(510, "10.199.3.7")


def test_marked_slice_traffic_routes_via_ppp0(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    packet = Packet("138.96.250.100", xid=510, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == UMTS_FWMARK
    route = stack.rpdb.lookup(packet.dst, mark=packet.mark)
    assert route.dev == "ppp0"


def test_other_slice_traffic_unmarked(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    packet = Packet("138.96.250.100", xid=666, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == 0
    assert stack.rpdb.lookup(packet.dst, mark=0).dev == "eth0"


def test_unregistered_destination_not_marked(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    packet = Packet("8.8.8.8", xid=510, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == 0


def test_source_address_rule_covers_bound_sockets(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    route = stack.rpdb.lookup("8.8.8.8", src="10.199.3.7")
    assert route.dev == "ppp0"


def test_drop_rule_blocks_other_slices_on_ppp0(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    intruder = Packet("10.199.0.1", xid=666, size=10)
    ok = stack.netfilter.run_chain(
        "filter", "OUTPUT", intruder, out_iface="ppp0", now=0.0
    )
    assert ok is False
    allowed = Packet("10.199.0.1", xid=510, size=10)
    assert stack.netfilter.run_chain(
        "filter", "OUTPUT", allowed, out_iface="ppp0", now=0.0
    )
    # Root-context traffic (xid 0) is also blocked on ppp0.
    root = Packet("10.199.0.1", xid=0, size=10)
    assert not stack.netfilter.run_chain(
        "filter", "OUTPUT", root, out_iface="ppp0", now=0.0
    )


def test_del_destination_removes_rule(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    iso.del_destination("138.96.250.100")
    packet = Packet("138.96.250.100", xid=510, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == 0
    assert stack.iptables.list_rules("mangle", "OUTPUT") == []


def test_duplicate_destination_rejected(stack):
    iso = IsolationManager(stack)
    iso.add_destination("138.96.250.100")
    with pytest.raises(ValueError):
        iso.add_destination("138.96.250.100")


def test_del_unknown_destination_rejected(stack):
    iso = IsolationManager(stack)
    with pytest.raises(ValueError):
        iso.del_destination("138.96.250.100")


def test_invalid_destination_rejected(stack):
    iso = IsolationManager(stack)
    with pytest.raises(ValueError):
        iso.add_destination("not-an-ip")


def test_destinations_survive_stop_start(stack):
    iso = IsolationManager(stack)
    iso.add_destination("138.96.250.100")
    iso.install(510, "10.199.3.7")
    iso.remove()
    assert "138.96.250.100" in iso.destinations
    iso.install(510, "10.199.3.8")
    packet = Packet("138.96.250.100", xid=510, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == UMTS_FWMARK


def test_remove_clears_everything(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    iso.remove()
    assert not iso.active
    assert stack.ip.route_list(UMTS_TABLE) == []
    assert stack.iptables.list_rules("filter", "OUTPUT") == []
    assert stack.iptables.list_rules("mangle", "OUTPUT") == []
    assert all(r.pref not in (PREF_FWMARK_RULE, PREF_SRC_RULE) for r in stack.ip.rule_list())


def test_remove_idempotent(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.remove()
    iso.remove()


def test_add_before_install_applies_at_install(stack):
    iso = IsolationManager(stack)
    iso.add_destination("138.96.250.100")
    iso.install(510, "10.199.3.7")
    packet = Packet("138.96.250.100", xid=510, size=10)
    stack.netfilter.run_chain("mangle", "OUTPUT", packet, now=0.0)
    assert packet.mark == UMTS_FWMARK


def test_command_history_looks_like_the_paper(stack):
    iso = IsolationManager(stack)
    iso.install(510, "10.199.3.7")
    iso.add_destination("138.96.250.100")
    assert any("table umts" in c for c in stack.ip.history)
    assert any("fwmark" in c for c in stack.ip.history)
    assert any("from 10.199.3.7" in c for c in stack.ip.history)
    assert any("! --xid 510 -j DROP" in c for c in stack.iptables.history)
    assert any("-j MARK --set-mark 0x1" in c for c in stack.iptables.history)
