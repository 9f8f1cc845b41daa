"""ITGSend — the traffic sender."""

from __future__ import annotations

import itertools
import random as _random
from typing import Optional

from repro.net.addressing import AddressLike, ip
from repro.net.errors import NetworkError
from repro.net.socket import UDPSocket
from repro.obs.metrics import LATENCY_BUCKETS
from repro.sim.engine import Simulator
from repro.sim.process import Process, spawn
from repro.traffic.flows import MAX_PAYLOAD, MIN_PAYLOAD, FlowSpec
from repro.traffic.records import ProbePayload, RttRecord, SenderLog, SentRecord

_flow_ids = itertools.count(1)


class ItgSender:
    """One flow's sender process.

    Emits probes following the spec's IDT/PS processes and, for flows
    metered in RTT mode, matches echo replies arriving on the same
    socket back to their send timestamps.

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
        self._process: Optional[Process] = None
        # The IDT/PS samplers, bound once for the per-packet loop.
        self._idt_sample = spec.idt.sampler(rng)
        self._ps_sample = spec.ps.sampler(rng)
        socket.on_receive = self._on_receive
        if socket.port == 0:
            socket.bind()

    def start(self, at: float = 0.0) -> Process:
        """Begin generating at simulation time offset ``at`` from now."""
        if self._process is not None:
            raise RuntimeError("sender already started")

        def body():
            if at > 0:
                yield at
            sim = self.sim
            emit_one = self._emit_one
            idt_sample = self._idt_sample
            duration = self.spec.duration
            started = sim.now
            while sim.now - started < duration:
                emit_one()
                yield max(1e-6, idt_sample())

        self._process = spawn(self.sim, body(), name=f"itgsend:{self.spec.name}")
        return self._process

    def stop(self) -> None:
        """Abort the flow early."""
        if self._process is not None and self._process.alive:
            self._process.interrupt("stopped")

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
        """Whether the generation process has completed."""
        return self._process is not None and not self._process.alive
