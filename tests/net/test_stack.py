"""Integration tests for the IP stack: sockets, routing, hooks, ping."""

import pytest

from repro.net.errors import AddressInUseError, NoRouteError
from repro.net.icmp import Pinger
from repro.net.interface import EthernetInterface, PPPInterface
from repro.net.link import Link
from repro.net.stack import IPStack
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def two_nodes(sim, rate_bps=100e6, delay=0.001):
    """alice (10.0.0.1) <-> bob (10.0.0.2) on one LAN."""
    alice = IPStack(sim, "alice")
    bob = IPStack(sim, "bob")
    a_eth = alice.add_interface(EthernetInterface("eth0"))
    b_eth = bob.add_interface(EthernetInterface("eth0"))
    alice.configure_interface(a_eth, "10.0.0.1", 24)
    bob.configure_interface(b_eth, "10.0.0.2", 24)
    Link(sim, a_eth, b_eth, rate_bps=rate_bps, delay=delay)
    return alice, bob


def routed_triangle(sim):
    """alice -- router -- bob across two /24s; router forwards."""
    alice = IPStack(sim, "alice")
    router = IPStack(sim, "router")
    bob = IPStack(sim, "bob")
    router.forwarding = True
    a_eth = alice.add_interface(EthernetInterface("eth0"))
    r_a = router.add_interface(EthernetInterface("eth0"))
    r_b = router.add_interface(EthernetInterface("eth1"))
    b_eth = bob.add_interface(EthernetInterface("eth0"))
    alice.configure_interface(a_eth, "10.1.0.2", 24)
    router.configure_interface(r_a, "10.1.0.1", 24)
    router.configure_interface(r_b, "10.2.0.1", 24)
    bob.configure_interface(b_eth, "10.2.0.2", 24)
    alice.ip.route_add("default", "eth0", via="10.1.0.1")
    bob.ip.route_add("default", "eth0", via="10.2.0.1")
    Link(sim, a_eth, r_a, delay=0.001)
    Link(sim, r_b, b_eth, delay=0.001)
    return alice, router, bob


def test_udp_delivery_between_two_nodes(sim):
    alice, bob = two_nodes(sim)
    got = []
    server = bob.socket()
    server.bind(port=9000)
    server.on_receive = lambda payload, src, sport, pkt: got.append(
        (payload, str(src))
    )
    client = alice.socket()
    client.sendto("hello", 100, "10.0.0.2", 9000)
    sim.run()
    assert got == [("hello", "10.0.0.1")]


def test_source_address_selected_from_interface(sim):
    alice, bob = two_nodes(sim)
    seen = []
    server = bob.socket()
    server.bind(port=9000)
    server.on_receive = lambda payload, src, sport, pkt: seen.append(pkt)
    alice.socket().sendto("x", 10, "10.0.0.2", 9000)
    sim.run()
    assert str(seen[0].src) == "10.0.0.1"


def test_send_without_route_raises(sim):
    alice, _ = two_nodes(sim)
    with pytest.raises(NoRouteError):
        alice.socket().sendto("x", 10, "8.8.8.8", 1)


def test_local_destination_loops_back(sim):
    alice, _ = two_nodes(sim)
    got = []
    server = alice.socket()
    server.bind(port=7)
    server.on_receive = lambda payload, *a: got.append(payload)
    alice.socket().sendto("loop", 4, "10.0.0.1", 7)
    sim.run()
    assert got == ["loop"]


def test_loopback_address_delivery(sim):
    alice, _ = two_nodes(sim)
    got = []
    server = alice.socket()
    server.bind(port=7)
    server.on_receive = lambda payload, *a: got.append(payload)
    alice.socket().sendto("lo", 2, "127.0.0.1", 7)
    sim.run()
    assert got == ["lo"]


def test_forwarding_through_router(sim):
    alice, router, bob = routed_triangle(sim)
    got = []
    server = bob.socket()
    server.bind(port=9000)
    server.on_receive = lambda payload, *a: got.append(payload)
    alice.socket().sendto("via-router", 50, "10.2.0.2", 9000)
    sim.run()
    assert got == ["via-router"]
    assert router.forwarded_packets == 1


def test_router_without_forwarding_drops(sim):
    alice, router, bob = routed_triangle(sim)
    router.forwarding = False
    server = bob.socket()
    server.bind(port=9000)
    alice.socket().sendto("x", 10, "10.2.0.2", 9000)
    sim.run()
    assert router.dropped_no_route == 1
    assert server.rx_packets == 0


def test_ttl_expires(sim):
    alice, router, bob = routed_triangle(sim)
    sock = alice.socket()
    sock.bind()
    from repro.net.packet import Packet

    p = Packet("10.2.0.2", src="10.1.0.2", size=10, sport=sock.port, dport=1, ttl=1)
    alice.send(p)
    sim.run()
    assert router.dropped_ttl == 1


def test_ping_rtt(sim):
    alice, bob = two_nodes(sim, rate_bps=1e9, delay=0.005)
    pinger = Pinger(alice)
    pinger.send("10.0.0.2")
    sim.run()
    assert len(pinger.results) == 1
    seq, rtt = pinger.results[0]
    assert seq == 1
    assert rtt == pytest.approx(0.010, abs=0.002)


def test_ping_through_router(sim):
    alice, router, bob = routed_triangle(sim)
    pinger = Pinger(alice)
    pinger.send("10.2.0.2")
    sim.run()
    assert len(pinger.results) == 1


def test_mangle_mark_steers_policy_routing(sim):
    """The paper's trick end-to-end: MARK in mangle/OUTPUT + ip rule."""
    alice = IPStack(sim, "alice")
    eth = alice.add_interface(EthernetInterface("eth0"))
    ppp = alice.add_interface(EthernetInterface("ppp0"))
    alice.configure_interface(eth, "10.0.0.1", 24)
    alice.configure_interface(ppp, "10.199.3.7", 32, add_connected_route=False)
    bob = IPStack(sim, "bob")
    b1 = bob.add_interface(EthernetInterface("eth0"))
    b2 = bob.add_interface(EthernetInterface("eth1"))
    bob.configure_interface(b1, "10.0.0.2", 24)
    bob.configure_interface(b2, "10.199.0.1", 16)
    Link(sim, eth, b1)
    Link(sim, ppp, b2)
    alice.ip.route_add("default", "eth0", via="10.0.0.2")
    alice.ip.run("route add default dev ppp0 table umts")
    alice.ip.run("rule add fwmark 1 lookup umts pref 100")
    alice.iptables.run(
        "-t mangle -A OUTPUT -m xid --xid 510 -d 10.199.0.1 -j MARK --set-mark 1"
    )
    # A packet from the marked slice leaves through ppp0...
    alice.socket(xid=510).sendto("x", 10, "10.199.0.1", 1)
    # ...while root-context traffic to the same place uses eth0.
    alice.socket(xid=0).sendto("y", 10, "10.199.0.1", 1)
    sim.run()
    assert alice.iface("ppp0").tx_packets == 1
    assert alice.iface("eth0").tx_packets == 1


def test_filter_output_drop_by_xid(sim):
    alice, bob = two_nodes(sim)
    alice.iptables.run("-A OUTPUT -o eth0 -m xid ! --xid 510 -j DROP")
    server = bob.socket()
    server.bind(port=9)
    alice.socket(xid=510).sendto("ok", 2, "10.0.0.2", 9)
    alice.socket(xid=666).sendto("blocked", 7, "10.0.0.2", 9)
    sim.run()
    assert server.rx_packets == 1
    assert alice.dropped_filter == 1


def test_bind_to_device_constrains_route(sim):
    alice = IPStack(sim, "alice")
    eth = alice.add_interface(EthernetInterface("eth0"))
    ppp = alice.add_interface(EthernetInterface("ppp0"))
    alice.configure_interface(eth, "10.0.0.1", 24)
    alice.configure_interface(ppp, "10.199.3.7", 32, add_connected_route=False)
    peer = IPStack(sim, "peer")
    p1 = peer.add_interface(EthernetInterface("eth0"))
    peer.configure_interface(p1, "10.199.0.1", 16)
    Link(sim, ppp, p1)
    alice.ip.route_add("default", "eth0", via="10.0.0.254")
    alice.ip.route_add("default", "ppp0", metric=10)
    sock = alice.socket()
    sock.bind_to_device("ppp0")
    sock.sendto("x", 5, "10.199.0.1", 80)
    sim.run()
    assert alice.iface("ppp0").tx_packets == 1
    assert alice.iface("eth0").tx_packets == 0


def test_ephemeral_ports_unique(sim):
    alice, _ = two_nodes(sim)
    ports = {alice.socket().bind() for _ in range(100)}
    assert len(ports) == 100


def test_port_conflict_raises(sim):
    alice, _ = two_nodes(sim)
    alice.socket().bind(port=5000)
    with pytest.raises(AddressInUseError):
        alice.socket().bind(port=5000)


def test_rebind_after_close(sim):
    alice, _ = two_nodes(sim)
    sock = alice.socket()
    sock.bind(port=5000)
    sock.close()
    alice.socket().bind(port=5000)


def test_duplicate_interface_name_rejected(sim):
    alice, _ = two_nodes(sim)
    with pytest.raises(ValueError):
        alice.add_interface(EthernetInterface("eth0"))


def test_remove_interface_purges_routes(sim):
    alice, _ = two_nodes(sim)
    ppp = alice.add_interface(EthernetInterface("ppp0"))
    alice.configure_interface(ppp, "10.199.3.7", 32, add_connected_route=False)
    alice.ip.run("route add default dev ppp0 table umts")
    alice.remove_interface("ppp0")
    assert alice.ip.route_list("umts") == []
    assert "ppp0" not in alice.interfaces


def test_no_socket_counter(sim):
    alice, bob = two_nodes(sim)
    alice.socket().sendto("x", 5, "10.0.0.2", 4242)
    sim.run()
    assert bob.dropped_no_socket == 1


def test_socket_receive_respects_bound_device(sim):
    alice, bob = two_nodes(sim)
    server = bob.socket()
    server.bind(port=9)
    server.bind_to_device("eth1")  # not the arrival interface
    alice.socket().sendto("x", 5, "10.0.0.2", 9)
    sim.run()
    assert server.rx_packets == 0
    assert bob.dropped_no_socket == 1


def test_is_local_address(sim):
    alice, _ = two_nodes(sim)
    assert alice.is_local_address("10.0.0.1")
    assert alice.is_local_address("127.0.0.1")
    assert not alice.is_local_address("10.0.0.2")


def test_is_local_address_follows_configure_interface(sim):
    alice, _ = two_nodes(sim)
    assert alice.is_local_address("10.0.0.1")
    alice.configure_interface(alice.iface("eth0"), "10.0.0.9", 24)
    assert alice.is_local_address("10.0.0.9")
    assert not alice.is_local_address("10.0.0.1")


def test_is_local_address_follows_ppp_renumber(sim):
    # pppd re-dials hand ppp0 a fresh address each time.
    alice = IPStack(sim, "alice")
    ppp = alice.add_interface(PPPInterface("ppp0"))
    ppp.configure_p2p("10.64.0.1", "10.64.0.254")
    assert alice.is_local_address("10.64.0.1")
    assert not alice.is_local_address("10.64.0.254")
    ppp.configure_p2p("10.64.0.2", "10.64.0.254")
    assert alice.is_local_address("10.64.0.2")
    assert not alice.is_local_address("10.64.0.1")


def test_is_local_address_follows_add_and_remove_interface(sim):
    alice = IPStack(sim, "alice")
    eth = EthernetInterface("eth1")
    eth.configure("192.0.2.7", 24)
    assert not alice.is_local_address("192.0.2.7")
    alice.add_interface(eth)
    assert alice.is_local_address("192.0.2.7")
    alice.remove_interface("eth1")
    assert not alice.is_local_address("192.0.2.7")
    assert alice.is_local_address("127.0.0.1")


def test_drop_policy_on_empty_filter_output(sim):
    alice, bob = two_nodes(sim)
    metrics = MetricsRegistry()
    alice.netfilter.metrics = metrics
    alice.iptables.run("-P OUTPUT DROP")
    server = bob.socket()
    server.bind(port=9)
    alice.socket().sendto("blocked", 7, "10.0.0.2", 9)
    sim.run()
    assert server.rx_packets == 0
    assert alice.dropped_filter == 1
    assert alice.netfilter.dropped == 1
    assert metrics.counter("netfilter.dropped").value == 1
    assert alice.netfilter.table("filter").chain("OUTPUT").policy_packets == 1
