"""Reference model for :class:`repro.net.link.Channel`: the two-event channel.

This is the channel as it was before each hop became one engine event.
A transmission posts a "transmission done" event at the end of
serialization; that event counts the packet, draws loss and jitter,
posts the delivery and starts the next queued packet.  It exists only
as the oracle of ``tests/net/test_channel_equivalence.py``.
"""

from collections import deque
from operator import attrgetter


class ReferenceChannel:
    """One direction of a link, two engine events per packet."""

    def __init__(self, sim, deliver, rate_bps, delay, queue_bytes=256000,
                 loss_rate=0.0, jitter=None, rng=None, name="", length_of=None):
        self._sim = sim
        self._deliver = deliver
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue_bytes = queue_bytes
        self.loss_rate = loss_rate
        self.jitter = jitter
        self._rng = rng
        self.name = name
        self._length_of = length_of if length_of is not None else attrgetter("length")
        self._queue = deque()
        self._queued_bytes = 0
        self._busy = False
        self._last_delivery_time = 0.0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_queue = 0
        self.dropped_loss = 0

    @property
    def backlog_bytes(self):
        return self._queued_bytes

    @property
    def backlog_packets(self):
        return len(self._queue)

    def send(self, packet):
        size = self._length_of(packet)
        if self._queued_bytes + size > self.queue_bytes and self._busy:
            self.dropped_queue += 1
            return False
        if self._busy:
            self._queue.append(packet)
            self._queued_bytes += size
        else:
            self._begin_transmission(packet)
        return True

    def _begin_transmission(self, packet):
        self._busy = True
        serialization = self._length_of(packet) * 8.0 / self.rate_bps
        self._sim.post(serialization, self._transmission_done, packet)

    def _transmission_done(self, packet):
        self.tx_packets += 1
        self.tx_bytes += self._length_of(packet)
        self._schedule_delivery(packet)
        if self._queue:
            next_packet = self._queue.popleft()
            self._queued_bytes -= self._length_of(next_packet)
            self._begin_transmission(next_packet)
        else:
            self._busy = False

    def _schedule_delivery(self, packet):
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_loss += 1
            return
        delay = self.delay
        if self.jitter is not None:
            delay += max(0.0, self.jitter.sampler(self._rng)())
        arrival = self._sim.now + delay
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        self._sim.post_at(arrival, self._deliver, packet)
