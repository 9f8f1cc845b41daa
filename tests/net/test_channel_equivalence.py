"""Equivalence: the one-event :class:`Channel` vs the two-event reference.

``tests/net/reference_channel.py`` is the channel as it was before each
hop became one engine event.  For any schedule of sends, mid-queue rate
changes, tight queue limits and loss/jitter on private streams, both
must deliver the same packets at the same times, drop the same packets,
end with the same ``tx_*`` counters and read the same
``backlog_bytes``/``backlog_packets`` (``RabController`` polls them)
at every step.

Two rules are new and are pinned by hand-built cases instead:

- loss and jitter are drawn when a transmission starts, so two channels
  sharing one stream draw in transmission-start order;
- a send at the very instant the transmitter frees up finds it free.
  The reference queued such a send only when its event preceded the
  transmission-done event in the same instant, so the byte check then
  still counted the packet about to start.
"""

import random
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Channel
from repro.sim.engine import Simulator
from repro.sim.rng import UniformVariate
from tests.net.reference_channel import ReferenceChannel

#: Send and rate-change instants sit on this grid, and every size/rate
#: pair below serializes in a multiple of 1/64 s, so sends land exactly
#: on the instant the transmitter frees up (all values are exact floats).
GRID = 1 / 32
SIZE_UNIT = 32
RATES = (4096.0, 8192.0, 16384.0)

_SENDS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=32)),
    min_size=1,
    max_size=40,
    unique_by=itemgetter(0),  # one send per instant: see the module docstring
)
_RATE_CHANGES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), st.sampled_from(RATES)), max_size=8
)
_CHANNELS = st.fixed_dictionaries(
    {
        "rate_bps": st.sampled_from(RATES),
        "delay": st.sampled_from([0.0, 0.25]),
        # Never below the largest packet (32 * 32 B): see the docstring.
        "queue_bytes": st.integers(min_value=1024, max_value=4096),
        "loss_rate": st.sampled_from([0.0, 0.25]),
        "jitter": st.sampled_from([None, 0.05, 0.5]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def _drive(model, params, sends, rate_changes):
    """Run one schedule through ``model``; return everything observable."""
    sim = Simulator()
    delivered = []
    jitter = params["jitter"]
    channel = model(
        sim,
        lambda item: delivered.append((sim.now, item)),
        params["rate_bps"],
        params["delay"],
        queue_bytes=params["queue_bytes"],
        loss_rate=params["loss_rate"],
        jitter=None if jitter is None else UniformVariate(0.0, jitter),
        rng=random.Random(params["seed"]),
        length_of=itemgetter(1),
    )
    accepted = []
    # Rate changes go first so that, at a shared instant, they precede
    # the sends (and both precede the channel's own events).
    for frame, rate in rate_changes:
        sim.post_at(frame * GRID, setattr, channel, "rate_bps", rate)
    for index, (frame, units) in enumerate(sends):
        item = (index, units * SIZE_UNIT)
        sim.post_at(frame * GRID, lambda item=item: accepted.append(channel.send(item)))
    backlog = []
    for step in range(2 * 61 + 1):
        sim.run(until=step * GRID / 2)
        backlog.append((channel.backlog_bytes, channel.backlog_packets))
    sim.run()
    backlog.append((channel.backlog_bytes, channel.backlog_packets))
    counters = (channel.tx_packets, channel.tx_bytes, channel.dropped_queue, channel.dropped_loss)
    return delivered, accepted, backlog, counters


@given(params=_CHANNELS, sends=_SENDS, rate_changes=_RATE_CHANGES)
@settings(max_examples=300, deadline=None)
def test_channel_matches_two_event_reference(params, sends, rate_changes):
    assert _drive(Channel, params, sends, rate_changes) == _drive(
        ReferenceChannel, params, sends, rate_changes
    )


def _shared_stream_pair(model, seed):
    """Two directions on one stream: a long packet starts on ``ab``, then
    a short one starts on ``ba`` and finishes first."""
    sim = Simulator()
    rng = random.Random(seed)
    jitter = UniformVariate(0.0, 0.01)
    arrivals = {}

    def channel(name):
        return model(
            sim, lambda item: arrivals.__setitem__(name, sim.now), 8000.0, 0.5,
            jitter=jitter, rng=rng, length_of=itemgetter(1),
        )

    ab, ba = channel("ab"), channel("ba")
    ab.send(("long", 1000))  # 1 s on the wire
    sim.post_at(0.25, ba.send, ("short", 10))  # 0.01 s on the wire
    sim.run()
    return arrivals


def test_shared_stream_draws_in_transmission_start_order():
    draws = random.Random(7)
    first, second = (UniformVariate(0.0, 0.01).sampler(draws)() for _ in range(2))
    assert _shared_stream_pair(Channel, 7) == {
        "ab": 1.0 + (0.5 + first),
        "ba": (0.25 + 10 * 8.0 / 8000.0) + (0.5 + second),
    }
    # The reference drew at transmission end, so the pair swaps there.
    assert _shared_stream_pair(ReferenceChannel, 7) == {
        "ab": 1.0 + (0.5 + second),
        "ba": (0.25 + 10 * 8.0 / 8000.0) + (0.5 + first),
    }


def _sends_at_free_instant(model):
    """Two sends posted for the instant the first packet leaves the
    transmitter, ahead of the channel's own event; the queue holds one."""
    sim = Simulator()
    channel = model(sim, lambda item: None, 8000.0, 0.0, queue_bytes=1000,
                    length_of=itemgetter(1))
    for index in (1, 2):
        sim.post_at(1.0, channel.send, (index, 1000))
    channel.send((0, 1000))  # leaves the transmitter at t = 1 s
    sim.run()
    return channel.tx_packets, channel.dropped_queue


def test_send_at_the_free_instant_finds_the_transmitter_free():
    assert _sends_at_free_instant(Channel) == (3, 0)
    assert _sends_at_free_instant(ReferenceChannel) == (2, 1)
