"""ITGDec — turning packet logs into the paper's QoS series.

Every quantity is reported exactly the way §3.1 describes: "samples
[...] represent the average values calculated over non-overlapping
windows of 200 milliseconds".  Each series is one
:func:`~repro.sim.monitor.window_fold` over a sample generator, and
the summary means use :func:`~repro.sim.monitor.ordered_sum`, so both
add their floats in the same left-to-right order on every CPython:

- **bitrate** — payload bits delivered per window (kbit/s), binned by
  arrival time;
- **jitter** — mean absolute one-way-delay variation between
  consecutive arrivals in the window (seconds);
- **loss** — packets sent in the window that never arrived (pkt/window,
  binned by send time, matching the figure's "Packet loss [pkt/200ms]"
  axis);
- **RTT** — mean round-trip time of the probes sent in the window.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable, List, NamedTuple, Tuple

from repro.sim.monitor import TimeSeries, ordered_sum, window_fold
from repro.traffic.records import ReceiverLog, SenderLog

DEFAULT_WINDOW = 0.2

# C-level sort keys: no Python call per record.
_ARRIVAL_TIME = attrgetter("received_at")
_SEND_TIME = attrgetter("sent_at")


class FlowSummary(NamedTuple):
    """End-of-run totals for one flow."""

    packets_sent: int
    packets_received: int
    packets_lost: int
    loss_fraction: float
    mean_bitrate_kbps: float
    mean_owd: float
    max_owd: float
    mean_jitter: float
    max_jitter: float
    mean_rtt: float
    max_rtt: float
    duration: float


class ItgDecoder:
    """Decode one flow's sender+receiver logs."""

    def __init__(
        self,
        sender_log: SenderLog,
        receiver_log: ReceiverLog,
        window: float = DEFAULT_WINDOW,
    ):
        if sender_log.flow_id != receiver_log.flow_id:
            raise ValueError(
                f"flow id mismatch: sender {sender_log.flow_id} vs "
                f"receiver {receiver_log.flow_id}"
            )
        if window <= 0:
            raise ValueError("window must be positive")
        self.sender_log = sender_log
        self.receiver_log = receiver_log
        self.window = window

    # -- time origin -----------------------------------------------------

    @property
    def origin(self) -> float:
        """Time axis zero: the first transmission."""
        if not self.sender_log.sent:
            return 0.0
        return self.sender_log.sent[0].sent_at

    @property
    def send_end(self) -> float:
        """End of the generation phase (last transmission)."""
        if not self.sender_log.sent:
            return 0.0
        return self.sender_log.sent[-1].sent_at

    def _span(self) -> float:
        last_arrival = (
            self.receiver_log.received[-1].received_at
            if self.receiver_log.received
            else self.send_end
        )
        return max(self.send_end, last_arrival) + self.window

    # -- series ---------------------------------------------------------

    def _arrivals(self):
        """Received records in arrival order (logs may interleave)."""
        return sorted(self.receiver_log.received, key=_ARRIVAL_TIME)

    def _windowed(
        self,
        name: str,
        samples: Iterable[Tuple[float, float]],
        end: float,
        mean: bool,
    ) -> TimeSeries:
        """Fold time-ordered samples straight into the paper's windows."""
        out = TimeSeries(name)
        out.times, out.values = window_fold(samples, self.window, 0.0, end, mean)
        return out

    def bitrate_kbps(self) -> TimeSeries:
        """Received payload bitrate per window, in kbit/s."""
        origin = self.origin
        series = self._windowed(
            "bitrate_kbps",
            ((record.received_at - origin, record.size * 8.0) for record in self._arrivals()),
            self._span() - origin,
            mean=False,
        )
        series.values = [bits / self.window / 1000.0 for bits in series.values]
        return series

    def owd_series(self) -> TimeSeries:
        """Mean one-way delay per window, in seconds."""
        origin = self.origin
        return self._windowed(
            "owd",
            ((record.received_at - origin, record.owd) for record in self._arrivals()),
            self._span() - origin,
            mean=True,
        )

    def _jitter_samples(self, origin: float) -> Iterable[Tuple[float, float]]:
        previous_owd = None
        for record in self._arrivals():
            if previous_owd is not None:
                yield record.received_at - origin, abs(record.owd - previous_owd)
            previous_owd = record.owd

    def jitter_series(self) -> TimeSeries:
        """Mean |OWD variation| between consecutive arrivals, per window."""
        origin = self.origin
        return self._windowed(
            "jitter", self._jitter_samples(origin), self._span() - origin, mean=True
        )

    def loss_series(self) -> TimeSeries:
        """Packets lost per window (binned by send time)."""
        origin, has_seq = self.origin, self.receiver_log.has_seq
        return self._windowed(
            "loss",
            (
                (record.sent_at - origin, 0.0 if has_seq(record.seq) else 1.0)
                for record in sorted(self.sender_log.sent, key=_SEND_TIME)
            ),
            self.send_end - origin + self.window,
            mean=False,
        )

    def rtt_series(self) -> TimeSeries:
        """Mean RTT per window (binned by probe send time), seconds."""
        samples = sorted(
            (record.completed_at - record.rtt, record.rtt)
            for record in self.sender_log.rtt
        )
        origin = self.origin
        return self._windowed(
            "rtt",
            ((sent_at - origin, rtt) for sent_at, rtt in samples),
            self.send_end - origin + self.window,
            mean=True,
        )

    # -- summary -----------------------------------------------------------

    def summary(self) -> FlowSummary:
        """End-of-run aggregate statistics."""
        sent = self.sender_log.packets_sent
        received = self.receiver_log.packets_received
        lost = sent - received
        owds = [r.owd for r in self._arrivals()]
        jitters = []
        for before, after in zip(owds, owds[1:]):
            jitters.append(abs(after - before))
        rtts = [r.rtt for r in self.sender_log.rtt]
        span = self.send_end - self.origin
        total_bits = self.receiver_log.bytes_received * 8.0
        return FlowSummary(
            packets_sent=sent,
            packets_received=received,
            packets_lost=lost,
            loss_fraction=(lost / sent) if sent else math.nan,
            mean_bitrate_kbps=(total_bits / span / 1000.0) if span > 0 else math.nan,
            mean_owd=_mean(owds),
            max_owd=max(owds) if owds else math.nan,
            mean_jitter=_mean(jitters),
            max_jitter=max(jitters) if jitters else math.nan,
            mean_rtt=_mean(rtts),
            max_rtt=max(rtts) if rtts else math.nan,
            duration=span,
        )


def _mean(values: List[float]) -> float:
    return ordered_sum(values) / len(values) if values else math.nan
