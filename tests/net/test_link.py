"""Unit tests for channels and links."""

import pytest

from repro.net.interface import EthernetInterface
from repro.net.link import Channel, Link
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.rng import ConstantVariate, RandomStreams, UniformVariate


def make_channel(sim, sink, **kwargs):
    defaults = dict(rate_bps=1e6, delay=0.01)
    defaults.update(kwargs)
    return Channel(sim, sink.append, **defaults)


def test_serialization_plus_propagation_delay():
    sim = Simulator()
    received = []
    ch = Channel(sim, lambda p: received.append(sim.now), rate_bps=8000.0, delay=0.5)
    ch.send(Packet("10.0.0.1", size=972))  # 1000 bytes on the wire
    sim.run()
    # 1000 B * 8 / 8000 bps = 1 s serialization + 0.5 s propagation
    assert received == [pytest.approx(1.5)]


def test_fifo_back_to_back_packets():
    sim = Simulator()
    times = []
    ch = Channel(sim, lambda p: times.append(sim.now), rate_bps=8000.0, delay=0.0)
    ch.send(Packet("10.0.0.1", size=972))
    ch.send(Packet("10.0.0.1", size=972))
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_queue_overflow_drops():
    sim = Simulator()
    got = []
    ch = Channel(
        sim, got.append, rate_bps=8000.0, delay=0.0, queue_bytes=1100
    )
    # First goes to transmitter, second queues (1000 B), third overflows.
    assert ch.send(Packet("10.0.0.1", size=972)) is True
    assert ch.send(Packet("10.0.0.1", size=972)) is True
    assert ch.send(Packet("10.0.0.1", size=972)) is False
    sim.run()
    assert len(got) == 2
    assert ch.dropped_queue == 1


def test_backlog_accounting():
    sim = Simulator()
    ch = Channel(sim, lambda p: None, rate_bps=8000.0, delay=0.0, queue_bytes=10**6)
    ch.send(Packet("10.0.0.1", size=972))
    ch.send(Packet("10.0.0.1", size=972))
    ch.send(Packet("10.0.0.1", size=972))
    assert ch.backlog_packets == 2
    assert ch.backlog_bytes == 2000
    sim.run()
    assert ch.backlog_packets == 0
    assert ch.backlog_bytes == 0


def test_rate_change_applies_to_next_packet():
    sim = Simulator()
    times = []
    ch = Channel(sim, lambda p: times.append(sim.now), rate_bps=8000.0, delay=0.0)
    ch.send(Packet("10.0.0.1", size=972))
    ch.send(Packet("10.0.0.1", size=972))
    # Double the rate while the first packet is in flight.
    sim.schedule(0.5, lambda: setattr(ch, "rate_bps", 16000.0))
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(1.5)]


def test_random_loss():
    sim = Simulator()
    got = []
    rng = RandomStreams(1).stream("loss")
    ch = Channel(sim, got.append, rate_bps=1e9, delay=0.0, loss_rate=0.5, rng=rng)
    for _ in range(1000):
        ch.send(Packet("10.0.0.1", size=100))
    sim.run()
    assert 350 < len(got) < 650
    assert ch.dropped_loss == 1000 - len(got)


def test_jitter_does_not_reorder():
    sim = Simulator()
    order = []
    rng = RandomStreams(2).stream("jitter")
    ch = Channel(
        sim,
        lambda p: order.append(p.uid),
        rate_bps=1e9,
        delay=0.01,
        jitter=UniformVariate(0.0, 0.1),
        rng=rng,
    )
    packets = [Packet("10.0.0.1", size=10) for _ in range(50)]
    for p in packets:
        ch.send(p)
    sim.run()
    assert order == [p.uid for p in packets]


def test_loss_without_rng_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, lambda p: None, rate_bps=1e6, delay=0.0, loss_rate=0.1)


def test_invalid_channel_params_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, lambda p: None, rate_bps=0.0, delay=0.0)
    with pytest.raises(ValueError):
        Channel(sim, lambda p: None, rate_bps=1.0, delay=-1.0)
    with pytest.raises(ValueError):
        Channel(
            sim,
            lambda p: None,
            rate_bps=1.0,
            delay=0.0,
            loss_rate=1.0,
            rng=RandomStreams(0).stream("x"),
        )


def test_constant_jitter_adds_delay():
    sim = Simulator()
    times = []
    rng = RandomStreams(3).stream("j")
    ch = Channel(
        sim,
        lambda p: times.append(sim.now),
        rate_bps=1e9,
        delay=0.1,
        jitter=ConstantVariate(0.05),
        rng=rng,
    )
    ch.send(Packet("10.0.0.1", size=10))
    sim.run()
    assert times[0] == pytest.approx(0.15, abs=1e-3)


def test_link_wires_two_interfaces():
    sim = Simulator()
    a = EthernetInterface("eth0")
    b = EthernetInterface("eth0")
    link = Link(sim, a, b, rate_bps=1e6, delay=0.001)
    assert a.up and b.up
    assert a.channel is link.ab
    assert b.channel is link.ba


def test_link_asymmetric_rates():
    sim = Simulator()
    a = EthernetInterface("eth0")
    b = EthernetInterface("eth0")
    link = Link(sim, a, b, rate_bps_ab=1e6, rate_bps_ba=2e6, delay=0.001)
    assert link.ab.rate_bps == 1e6
    assert link.ba.rate_bps == 2e6


def test_channel_counters():
    sim = Simulator()
    got = []
    ch = Channel(sim, got.append, rate_bps=1e6, delay=0.0)
    p = Packet("10.0.0.1", size=100)
    ch.send(p)
    sim.run()
    assert ch.tx_packets == 1
    assert ch.tx_bytes == p.length


def dispatched_events(sends):
    """Engine events one channel dispatches for ``sends`` bursts of packets."""
    sim = Simulator()
    sim.metrics = MetricsRegistry()
    ch = Channel(sim, lambda p: None, rate_bps=8000.0, delay=0.01)
    for burst in sends:
        for _ in range(burst):
            ch.send(Packet("10.0.0.1", size=972))
        sim.run()
    return sim.metrics.counter("engine.events_dispatched").value


@pytest.mark.parametrize("k", [1, 5])
def test_one_engine_event_per_spaced_packet(k):
    # Each packet finds the transmitter idle: its delivery is the only event.
    assert dispatched_events([1] * k) == k


@pytest.mark.parametrize("k", [1, 5])
def test_back_to_back_burst_adds_one_event_per_queued_packet(k):
    # The first packet starts at once; each queued one waits for one
    # "transmitter free" event, then its delivery.
    assert dispatched_events([k]) == 2 * k - 1
