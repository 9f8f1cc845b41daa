"""Integration tests: ITGSend/ITGRecv over a clean link."""

import pytest

from repro.net.interface import EthernetInterface
from repro.net.link import Link
from repro.net.stack import IPStack
from repro.sim.engine import Simulator
from repro.sim.rng import ConstantVariate, ExponentialVariate, RandomStreams
from repro.traffic.flows import FlowSpec, cbr, voip_g711
from repro.traffic.receiver import ItgReceiver
from repro.traffic.sender import ItgSender


def make_pair(sim, rate_bps=100e6, delay=0.005):
    a = IPStack(sim, "a")
    b = IPStack(sim, "b")
    a_eth = a.add_interface(EthernetInterface("eth0"))
    b_eth = b.add_interface(EthernetInterface("eth0"))
    a.configure_interface(a_eth, "10.0.0.1", 24)
    b.configure_interface(b_eth, "10.0.0.2", 24)
    Link(sim, a_eth, b_eth, rate_bps=rate_bps, delay=delay)
    return a, b


def run_flow(spec, seed=0, rate_bps=100e6, delay=0.005):
    sim = Simulator()
    a, b = make_pair(sim, rate_bps=rate_bps, delay=delay)
    receiver = ItgReceiver(sim, b.socket(), port=spec.dport)
    sender = ItgSender(
        sim, a.socket(), "10.0.0.2", spec, RandomStreams(seed).stream("idt")
    )
    sender.start()
    sim.run(until=spec.duration + 30.0)
    return sender, receiver


def test_voip_packet_count():
    spec = voip_g711(duration=10.0)
    sender, receiver = run_flow(spec)
    # 100 pps for 10 s: one packet every 10 ms starting at t=0.
    assert sender.log.packets_sent == pytest.approx(1000, abs=2)
    assert receiver.total_received == sender.log.packets_sent


def test_no_loss_on_clean_link():
    spec = cbr(duration=5.0)
    sender, receiver = run_flow(spec)
    log = receiver.log_for(sender.flow_id)
    assert log.packets_received == sender.log.packets_sent
    assert log.duplicates == 0


def test_rtt_metering_completes():
    spec = voip_g711(duration=5.0)
    sender, receiver = run_flow(spec)
    assert len(sender.log.rtt) == sender.log.packets_sent
    for record in sender.log.rtt:
        assert record.rtt == pytest.approx(0.010, abs=0.005)


def test_owd_mode_sends_no_replies():
    spec = voip_g711(duration=5.0, meter="owd")
    sender, receiver = run_flow(spec)
    assert sender.log.rtt == []
    assert receiver.socket.tx_packets == 0


def test_owd_measured_exactly():
    spec = voip_g711(duration=2.0, meter="owd")
    sender, receiver = run_flow(spec, delay=0.025)
    log = receiver.log_for(sender.flow_id)
    for record in log.received:
        assert record.owd == pytest.approx(0.025, abs=0.002)


def test_poisson_flow_rate_close_to_mean():
    spec = FlowSpec(ExponentialVariate(1.0 / 200.0), ConstantVariate(100), duration=30.0)
    sender, _ = run_flow(spec, seed=3)
    rate = sender.log.packets_sent / 30.0
    assert rate == pytest.approx(200.0, rel=0.1)


def test_sender_stop_aborts_flow():
    sim = Simulator()
    a, b = make_pair(sim)
    spec = voip_g711(duration=100.0)
    receiver = ItgReceiver(sim, b.socket(), port=spec.dport)
    sender = ItgSender(sim, a.socket(), "10.0.0.2", spec, RandomStreams(0).stream("x"))
    sender.start()
    sim.schedule(10.0, sender.stop)
    sim.run(until=200.0)
    assert sender.finished
    assert 900 <= sender.log.packets_sent <= 1100


def test_start_delay():
    sim = Simulator()
    a, b = make_pair(sim)
    spec = voip_g711(duration=1.0)
    ItgReceiver(sim, b.socket(), port=spec.dport)
    sender = ItgSender(sim, a.socket(), "10.0.0.2", spec, RandomStreams(0).stream("x"))
    sender.start(at=5.0)
    sim.run()
    assert sender.log.sent[0].sent_at == pytest.approx(5.0)


def test_send_errors_counted_when_no_route():
    sim = Simulator()
    a = IPStack(sim, "lonely")
    eth = a.add_interface(EthernetInterface("eth0"))
    a.configure_interface(eth, "10.0.0.1", 24)
    spec = voip_g711(duration=1.0)
    sender = ItgSender(sim, a.socket(), "99.99.99.99", spec, RandomStreams(0).stream("x"))
    sender.start()
    sim.run(until=10.0)
    assert sender.log.packets_sent == 0
    assert sender.log.send_errors > 50


def test_two_flows_one_receiver_port():
    sim = Simulator()
    a, b = make_pair(sim)
    receiver = ItgReceiver(sim, b.socket(), port=8999)
    spec1 = voip_g711(duration=5.0)
    spec2 = cbr(duration=5.0)
    s1 = ItgSender(sim, a.socket(), "10.0.0.2", spec1, RandomStreams(0).stream("a"))
    s2 = ItgSender(sim, a.socket(), "10.0.0.2", spec2, RandomStreams(0).stream("b"))
    s1.start()
    s2.start()
    sim.run(until=60.0)
    assert receiver.log_for(s1.flow_id).packets_received == s1.log.packets_sent
    assert receiver.log_for(s2.flow_id).packets_received == s2.log.packets_sent


def test_double_start_rejected():
    sim = Simulator()
    a, b = make_pair(sim)
    spec = voip_g711(duration=1.0)
    sender = ItgSender(sim, a.socket(), "10.0.0.2", spec, RandomStreams(0).stream("x"))
    sender.start()
    with pytest.raises(RuntimeError):
        sender.start()


def test_loss_on_congested_link():
    # 1 Mbit/s offered into a 144 kbit/s link with a small queue.
    spec = cbr(duration=10.0, meter="owd")
    sender, receiver = run_flow(spec, rate_bps=144_000.0)
    log = receiver.log_for(sender.flow_id)
    # The link can carry ~17 pps; the rest is queued (bounded by the
    # 256 kB default queue) or dropped.
    sent = sender.log.packets_sent
    assert log.packets_received < 0.5 * sent
    max_deliverable = 17.2 * 10.0 + 256_000 / 1052
    assert log.packets_received <= max_deliverable + 2
