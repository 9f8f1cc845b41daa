"""Links and transmission channels.

A :class:`Channel` is one direction of a link: a DropTail byte queue in
front of a serializing transmitter, followed by a propagation delay
with optional jitter and random loss.  A :class:`Link` wires two
interfaces together with a channel each way.

Each hop costs one engine event: a packet that finds the transmitter
idle knows when it will leave it, so it starts at once and posts only
its delivery.  ``rate_bps`` is read when each transmission starts, so a
rate change (the UMTS RAB upgrade) takes effect on the next packet
boundary.  Loss and jitter are drawn then too, so two channels sharing
one random stream (both directions of a LAN tail) draw in
transmission-start order, even when the later start finishes first.
"""

from __future__ import annotations

import random as _random
from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Optional

from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import Distribution


class Channel:
    """One direction of a link.

    A send to an idle transmitter (empty queue, clock at or past
    ``_free_at``) starts at once; a send to a busy one joins the queue,
    and the first to queue posts :meth:`_transmission_done` at
    ``_free_at``: the transmitter frees up, starts the head of the queue
    and re-posts itself while packets wait.  :meth:`_schedule_delivery`
    starts one packet: departure time, ``tx_packets``/``tx_bytes``
    (counted at transmission start), loss, jitter and the delivery post.

    Parameters
    ----------
    sim:
        the simulator.
    deliver:
        callback receiving each packet that survives the channel.
    rate_bps:
        serialization rate in bits per second; mutable at runtime.
    delay:
        fixed one-way propagation/processing delay in seconds.
    queue_bytes:
        DropTail queue capacity in bytes (packets whose arrival would
        exceed it are dropped).
    loss_rate:
        independent per-packet loss probability (residual link loss).
    jitter:
        optional distribution of extra per-packet delay, sampled per
        packet; deliveries are serialized so the channel never reorders.
    rng:
        random source for loss and jitter (required if either is used).
    length_of:
        how to size the queued items in bytes; defaults to the IP
        packet's ``length``.  The UMTS radio bearer reuses this class
        for PPP frames by passing ``lambda f: f.wire_length``.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Packet], None],
        rate_bps: float,
        delay: float,
        queue_bytes: int = 256000,
        loss_rate: float = 0.0,
        jitter: Optional[Distribution] = None,
        rng: Optional[_random.Random] = None,
        name: str = "",
        length_of: Optional[Callable[[object], int]] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps!r}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate!r}")
        if (loss_rate > 0.0 or jitter is not None) and rng is None:
            raise ValueError("loss or jitter requires an rng")
        self._sim = sim
        self._deliver = deliver
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue_bytes = queue_bytes
        self.loss_rate = loss_rate
        self._rng = rng
        self._jitter = jitter.sampler(rng) if jitter is not None else None
        self.name = name
        self._length_of = length_of if length_of is not None else attrgetter("length")
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        self._free_at = 0.0  # when the transmitter frees up
        self._last_delivery_time = 0.0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_queue = 0
        self.dropped_loss = 0

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting in the queue (not counting in-flight)."""
        return self._queued_bytes

    @property
    def backlog_packets(self) -> int:
        """Packets currently waiting in the queue."""
        return len(self._queue)

    def send(self, packet: Packet) -> bool:
        """Transmit or enqueue a packet; ``False`` if the queue rejected it."""
        size = self._length_of(packet)
        queue = self._queue
        if not queue and self._sim.now >= self._free_at:
            self._schedule_delivery(packet, size)
            return True
        if self._queued_bytes + size > self.queue_bytes:
            self.dropped_queue += 1
            return False
        if not queue:
            self._sim.post_at(self._free_at, self._transmission_done)
        queue.append(packet)
        self._queued_bytes += size
        return True

    def _transmission_done(self) -> None:
        """The transmitter frees up: start the head of the queue."""
        packet = self._queue.popleft()
        size = self._length_of(packet)
        self._queued_bytes -= size
        self._schedule_delivery(packet, size)
        if self._queue:
            self._sim.post_at(self._free_at, self._transmission_done)

    def _schedule_delivery(self, packet: Packet, size: int) -> None:
        """Start transmitting ``packet`` now and post its delivery."""
        sim = self._sim
        done = self._free_at = sim.now + size * 8.0 / self.rate_bps
        self.tx_packets += 1
        self.tx_bytes += size
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_loss += 1
            return
        delay = self.delay
        if self._jitter is not None:
            delay += max(0.0, self._jitter())
        arrival = done + delay
        # FIFO channels never reorder: clamp to the last delivery time.
        if arrival < self._last_delivery_time:
            arrival = self._last_delivery_time
        self._last_delivery_time = arrival
        sim.post_at(arrival, self._deliver, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Channel {self.name!r} rate={self.rate_bps:.0f}bps "
            f"delay={self.delay * 1000:.1f}ms backlog={self._queued_bytes}B>"
        )


class Link:
    """A full-duplex link between two interfaces.

    Creates one :class:`Channel` per direction with (by default)
    symmetric parameters, attaches them, and brings both interfaces up.
    Use the asymmetric keyword pairs when the two directions differ.
    """

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        rate_bps: float = 100e6,
        delay: float = 0.0001,
        jitter: Optional[Distribution] = None,
        rng: Optional[_random.Random] = None,
        rate_bps_ab: Optional[float] = None,
        rate_bps_ba: Optional[float] = None,
        name: str = "",
    ):
        self.name = name or f"{a.name}<->{b.name}"
        self.a = a
        self.b = b
        self.ab = Channel(
            sim, b.deliver, rate_bps_ab if rate_bps_ab is not None else rate_bps, delay,
            jitter=jitter, rng=rng,
            name=f"{self.name}:ab",
        )
        self.ba = Channel(
            sim, a.deliver, rate_bps_ba if rate_bps_ba is not None else rate_bps, delay,
            jitter=jitter, rng=rng,
            name=f"{self.name}:ba",
        )
        a.attach(self.ab)
        b.attach(self.ba)
        a.bring_up()
        b.bring_up()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name}>"
