"""Corner-path tests for the router/forwarding code paths."""


from repro.net.interface import EthernetInterface
from repro.net.link import Link
from repro.net.stack import IPStack
from repro.sim.engine import Simulator


def build_router_world(sim):
    """alice (10.1) -- router -- bob (10.2), forwarding enabled."""
    alice = IPStack(sim, "alice")
    router = IPStack(sim, "router")
    bob = IPStack(sim, "bob")
    router.forwarding = True
    a = alice.add_interface(EthernetInterface("eth0"))
    ra = router.add_interface(EthernetInterface("eth0"))
    rb = router.add_interface(EthernetInterface("eth1"))
    b = bob.add_interface(EthernetInterface("eth0"))
    alice.configure_interface(a, "10.1.0.2", 24)
    router.configure_interface(ra, "10.1.0.1", 24)
    router.configure_interface(rb, "10.2.0.1", 24)
    bob.configure_interface(b, "10.2.0.2", 24)
    alice.ip.route_add("default", "eth0", via="10.1.0.1")
    bob.ip.route_add("default", "eth0", via="10.2.0.1")
    Link(sim, a, ra)
    Link(sim, rb, b)
    return alice, router, bob


def server_on(stack, port=9):
    got = []
    sock = stack.socket()
    sock.bind(port=port)
    sock.on_receive = lambda payload, *a: got.append(payload)
    return got


def test_prerouting_mangle_drop(sim=None):
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    router.iptables.run("-t mangle -A PREROUTING -i eth0 -j LOG")
    bob_got = server_on(bob)
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    assert bob_got == ["x"]
    log = router.iptables.list_rules("mangle", "PREROUTING")[0]
    assert log.packets == 1


def test_input_filter_drop():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    # Router refuses datagrams addressed to itself.
    router.iptables.run("-A INPUT -p udp -j DROP")
    router_got = server_on(router)
    alice.socket().sendto("x", 10, "10.1.0.1", 9)
    sim.run(until=2.0)
    assert router_got == []
    assert router.dropped_filter == 1


def test_forward_filter_drop():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    router.iptables.run("-A FORWARD -s 10.1.0.0/24 -j DROP")
    bob_got = server_on(bob)
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    assert bob_got == []
    assert router.dropped_filter == 1


def test_postrouting_mark_visible_on_forwarded_packet():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    router.iptables.run("-t mangle -A POSTROUTING -o eth1 -j MARK --set-mark 0x7")
    seen = []
    sock = bob.socket()
    sock.bind(port=9)
    sock.on_receive = lambda payload, src, sport, pkt: seen.append(pkt.mark)
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    assert seen == [0x7]


def test_prerouting_mark_steers_forwarding():
    """Policy routing on a router: marked transit traffic detours."""
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    # A second path off the router.
    rc = router.add_interface(EthernetInterface("eth2"))
    carol = IPStack(sim, "carol")
    c = carol.add_interface(EthernetInterface("eth0"))
    router.configure_interface(rc, "10.3.0.1", 24)
    carol.configure_interface(c, "10.3.0.2", 24)
    Link(sim, rc, c)
    carol.forwarding = False
    router.ip.run("route add 10.2.0.0/24 dev eth2 via 10.3.0.2 table detour")
    router.ip.run("rule add fwmark 5 lookup detour pref 50")
    router.iptables.run(
        "-t mangle -A PREROUTING -i eth0 -p udp --dport 9 -j MARK --set-mark 5"
    )
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    # The packet left via eth2 (toward carol) instead of eth1.
    assert router.iface("eth2").tx_packets == 1
    assert router.iface("eth1").tx_packets == 0


def test_forward_no_route_counted():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    dropped_before = router.dropped_no_route
    # 10.9/24 is nowhere in the router's tables.
    from repro.net.packet import Packet

    sock = alice.socket()
    sock.bind()
    packet = Packet("10.9.0.1", src="10.1.0.2", size=10, sport=sock.port, dport=1)
    alice.send(packet)
    sim.run(until=2.0)
    assert router.dropped_no_route == dropped_before + 1


def test_forwarded_ttl_decrements():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    seen = []
    sock = bob.socket()
    sock.bind(port=9)
    sock.on_receive = lambda payload, src, sport, pkt: seen.append(pkt.ttl)
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    assert seen == [63]


def test_quiet_forwarding_hop_walks_no_hook_until_a_policy_write():
    sim = Simulator()
    alice, router, bob = build_router_world(sim)
    netfilter = router.netfilter
    walks = []
    for name in ("run_hook", "run_chain"):
        walk = getattr(netfilter, name)
        setattr(netfilter, name, lambda *a, walk=walk, **k: walks.append(a[0]) or walk(*a, **k))
    bob_got = server_on(bob)
    alice.socket().sendto("x", 10, "10.2.0.2", 9)
    sim.run(until=2.0)
    assert bob_got == ["x"]
    assert walks == []
    assert netfilter.forward.crossings == 1
    router.iptables.run("-P FORWARD DROP")
    alice.socket().sendto("y", 10, "10.2.0.2", 9)
    sim.run(until=4.0)
    assert bob_got == ["x"]
    assert walks == ["FORWARD"]
    assert router.dropped_filter == 1
    assert netfilter.table("filter").chain("FORWARD").policy_packets == 2
