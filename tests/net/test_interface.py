"""Unit tests for interface behaviours."""

import pytest

from repro.net.errors import InterfaceDownError
from repro.net.interface import (
    EthernetInterface,
    LoopbackInterface,
    PPPInterface,
)
from repro.net.link import Channel, Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def test_interface_starts_down_and_unconfigured():
    iface = EthernetInterface("eth0")
    assert not iface.up
    assert iface.address is None
    assert iface.connected_network() is None


def test_configure_sets_connected_network():
    iface = EthernetInterface("eth0")
    iface.configure("10.0.0.5", 24)
    assert str(iface.connected_network()) == "10.0.0.0/24"


def test_configure_rejects_bad_prefix():
    iface = EthernetInterface("eth0")
    with pytest.raises(ValueError):
        iface.configure("10.0.0.5", 33)


def test_transmit_down_raises():
    iface = EthernetInterface("eth0")
    with pytest.raises(InterfaceDownError):
        iface.transmit(Packet("10.0.0.1"))


def test_transmit_unattached_raises():
    iface = EthernetInterface("eth0")
    iface.bring_up()
    with pytest.raises(InterfaceDownError):
        iface.transmit(Packet("10.0.0.1"))


def test_oversized_packet_dropped_not_raised():
    sim = Simulator()
    got = []
    iface = EthernetInterface("eth0", mtu=100)
    iface.attach(Channel(sim, got.append, rate_bps=1e6, delay=0.0))
    iface.bring_up()
    iface.transmit(Packet("10.0.0.1", size=5000))
    sim.run()
    assert got == []
    assert iface.tx_dropped == 1
    assert iface.tx_packets == 0


def test_mtu_bounds_the_whole_datagram():
    # ``length`` already counts the IP header, so a datagram exactly
    # ``mtu`` bytes long fits and one byte more does not.
    sim = Simulator()
    got = []
    iface = EthernetInterface("eth0", mtu=100)
    iface.attach(Channel(sim, got.append, rate_bps=1e6, delay=0.0))
    iface.bring_up()
    fits = Packet("10.0.0.1", size=72)
    too_big = Packet("10.0.0.1", size=73)
    assert (fits.length, too_big.length) == (100, 101)
    iface.transmit(fits)
    iface.transmit(too_big)
    sim.run()
    assert got == [fits]
    assert iface.tx_packets == 1
    assert iface.tx_dropped == 1


def test_counters_track_traffic():
    sim = Simulator()
    a = EthernetInterface("eth0")
    b = EthernetInterface("eth0")
    Link(sim, a, b)
    b.stack = type("S", (), {"receive": lambda self, p, i: None})()
    p = Packet("10.0.0.1", size=100)
    a.transmit(p)
    sim.run()
    assert a.tx_packets == 1
    assert a.tx_bytes == p.length
    assert b.rx_packets == 1
    assert b.rx_bytes == p.length


def test_deliver_to_down_interface_drops():
    iface = EthernetInterface("eth0")
    iface.deliver(Packet("10.0.0.1"))
    assert iface.rx_dropped == 1


def test_deliver_without_stack_drops():
    iface = EthernetInterface("eth0")
    iface.bring_up()
    iface.deliver(Packet("10.0.0.1"))
    assert iface.rx_dropped == 1


def test_loopback_always_up_and_self_delivers():
    lo = LoopbackInterface()
    assert lo.up
    assert str(lo.address) == "127.0.0.1"
    seen = []
    lo.stack = type("S", (), {"receive": lambda self, p, i: seen.append(p)})()
    lo.transmit(Packet("127.0.0.1", size=10))
    assert len(seen) == 1
    assert lo.tx_packets == 1
    assert lo.rx_packets == 1


def test_ppp_interface_p2p_configuration():
    ppp = PPPInterface("ppp0")
    assert ppp.point_to_point
    assert ppp.connected_network() is None
    ppp.configure_p2p("10.199.3.7", "10.199.0.1")
    assert str(ppp.address) == "10.199.3.7"
    assert str(ppp.peer_address) == "10.199.0.1"
    assert str(ppp.connected_network()) == "10.199.0.1/32"
    assert ppp.prefix_len == 32


def test_ethernet_not_point_to_point():
    assert not EthernetInterface("eth0").point_to_point


def test_repr_readable():
    iface = EthernetInterface("eth0")
    assert "unconfigured" in repr(iface)
    iface.configure("10.0.0.1", 24)
    iface.bring_up()
    assert "10.0.0.1/24" in repr(iface)
    assert "up" in repr(iface)
