"""ITGSend — the traffic sender."""

from __future__ import annotations

import itertools
import random as _random
from typing import Optional

from repro.net.addressing import AddressLike, ip
from repro.net.errors import NetworkError
from repro.net.socket import UDPSocket
from repro.obs.metrics import LATENCY_BUCKETS
from repro.sim.engine import Event, Simulator
from repro.sim.process import Signal
from repro.traffic.flows import MAX_PAYLOAD, MIN_PAYLOAD, FlowSpec
from repro.traffic.records import ProbePayload, RttRecord, SenderLog, SentRecord

_flow_ids = itertools.count(1)


class ItgSender:
    """One flow's sender: a callback that emits a probe and reschedules itself.

    Emits probes following the spec's IDT/PS processes and, for flows
    metered in RTT mode, matches echo replies arriving on the same
    socket back to their send timestamps.  Each tick is one engine
    event: it emits a probe and schedules the next tick one IDT sample
    later, until the flow's duration has passed.  :attr:`done` fires
    in the tick that finds the duration over, or on a zero-delay event
    after :meth:`stop`.

    The socket is any :class:`~repro.net.socket.UDPSocket` — a root
    context one or a sliver's (which is how the experiments run inside
    a PlanetLab slice).
    """

    def __init__(
        self,
        sim: Simulator,
        socket: UDPSocket,
        dst: AddressLike,
        spec: FlowSpec,
        rng: _random.Random,
        flow_id: Optional[int] = None,
    ):
        self.sim = sim
        self.socket = socket
        self.dst = ip(dst)
        self.spec = spec
        self.rng = rng
        self.flow_id = flow_id if flow_id is not None else next(_flow_ids)
        self.log = SenderLog(self.flow_id, spec.name)
        self._sent_times = {}
        self._seq = itertools.count()
        #: Fires (with ``None``) once the flow has ended or was stopped.
        self.done = Signal(sim, f"itgsend:{spec.name}.done")
        self._duration = spec.duration
        # The pending tick (None before start and after a stop), and the
        # simulated time the first probe goes out.
        self._event: Optional[Event] = None
        self._started: Optional[float] = None
        # The IDT/PS samplers, bound once for the per-packet loop.
        self._idt_sample = spec.idt.sampler(rng)
        self._ps_sample = spec.ps.sampler(rng)
        socket.on_receive = self._on_receive
        if socket.port == 0:
            socket.bind()

    def start(self, at: float = 0.0) -> "ItgSender":
        """Begin generating at simulation time offset ``at`` from now."""
        if self._started is not None:
            raise RuntimeError("sender already started")
        self._started = self.sim.now + at
        self._event = self.sim.schedule(0.0, self._begin, at)
        return self

    def stop(self) -> None:
        """Abort the flow early: no further probe; ``done`` fires on a
        zero-delay event."""
        if self._event is not None and not self.finished:
            self._event.cancel()
            self._event = None
            self.sim.post(0.0, self.done.fire, None)

    def _begin(self, at: float) -> None:
        if at > 0:
            self._event = self.sim.schedule(at, self._tick)
        else:
            self._tick()

    def _tick(self) -> None:
        sim = self.sim
        if sim.now - self._started < self._duration:
            self._emit_one()
            self._event = sim.schedule(max(1e-6, self._idt_sample()), self._tick)
        else:
            self.done.fire(None)

    def _emit_one(self) -> None:
        seq = next(self._seq)
        size = int(round(self._ps_sample()))
        size = max(MIN_PAYLOAD, min(MAX_PAYLOAD, size))
        payload = ProbePayload(self.flow_id, seq, kind="probe", meter=self.spec.meter)
        try:
            self.socket.sendto(payload, size, self.dst, self.spec.dport)
        except NetworkError:
            self.log.send_errors += 1
            return
        now = self.sim.now
        self.log.sent.append(SentRecord(seq, size, now))
        if self.spec.meter == "rtt":
            self._sent_times[seq] = now
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("traffic.packets_sent").inc()

    def _on_receive(self, payload, src, sport, packet) -> None:
        if not isinstance(payload, ProbePayload):
            return
        if payload.kind != "reply" or payload.flow_id != self.flow_id:
            return
        sent_at = self._sent_times.pop(payload.seq, None)
        if sent_at is None:
            return
        now = self.sim.now
        self.log.rtt.append(RttRecord(payload.seq, now - sent_at, now))
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.histogram("traffic.rtt_seconds", LATENCY_BUCKETS).observe(
                now - sent_at
            )

    @property
    def finished(self) -> bool:
        """Whether the flow has ended (:attr:`done` has fired)."""
        return self.done.fire_count > 0
