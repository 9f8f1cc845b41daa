"""Flow specifications — the IDT/PS process pairs D-ITG generates.

The two factories used throughout the reproduction are the paper's
workloads (§3.1):

- :func:`voip_g711` — "a single VoIP-like flow made of 72 Kbps of UDP
  CBR traffic resembling the characteristics of a real VoIP call using
  codec G.711": 100 packets/s of 90-byte payloads (72 kbit/s at the
  application layer);
- :func:`cbr` with the defaults ``rate=1 Mbit/s`` — "a 1-Mbps UDP CBR
  flow with packet size equal to 1024 Bytes and packet rate equal to
  122 pps".
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.rng import ConstantVariate, Distribution

#: Smallest payload the generator will emit (D-ITG's sequence header).
MIN_PAYLOAD = 8
#: Largest payload that fits an Ethernet MTU with IP+UDP headers.
MAX_PAYLOAD = 1472


class FlowSpec:
    """One unidirectional flow: IDT and PS processes plus metering."""

    def __init__(
        self,
        idt: Distribution,
        ps: Distribution,
        duration: float = 120.0,
        dport: int = 8999,
        meter: str = "rtt",
        name: str = "flow",
    ):
        if not 0 < duration < math.inf:  # also rejects NaN
            raise ValueError(f"duration must be finite and positive, got {duration!r}")
        if meter not in ("owd", "rtt"):
            raise ValueError(f"meter must be 'owd' or 'rtt', got {meter!r}")
        self.idt = idt
        self.ps = ps
        self.duration = duration
        self.dport = dport
        self.meter = meter
        self.name = name

    def expected_packet_rate(self) -> float:
        """Packets per second implied by the IDT process mean."""
        return 1.0 / self.idt.mean()

    def expected_bitrate(self) -> float:
        """Application-layer bit/s implied by the IDT and PS means."""
        return self.expected_packet_rate() * self.ps.mean() * 8.0

    def __repr__(self) -> str:
        return (
            f"<FlowSpec {self.name!r} idt={self.idt!r} ps={self.ps!r} "
            f"duration={self.duration}s meter={self.meter}>"
        )


def voip_g711(duration: float = 120.0, dport: int = 8999, meter: str = "rtt") -> FlowSpec:
    """The paper's VoIP-like flow: 100 pps × 90 B = 72 kbit/s CBR."""
    return FlowSpec(
        idt=ConstantVariate(0.010),
        ps=ConstantVariate(90),
        duration=duration,
        dport=dport,
        meter=meter,
        name="voip-g711",
    )


def cbr(
    rate_bps: float = 1_000_000.0,
    packet_size: int = 1024,
    duration: float = 120.0,
    dport: int = 8999,
    meter: str = "rtt",
    name: Optional[str] = None,
) -> FlowSpec:
    """A UDP constant-bitrate flow.

    With the defaults this is the paper's saturation workload: 1024-byte
    packets at 122 pps ≈ 1 Mbit/s.
    """
    if rate_bps <= 0 or packet_size <= 0:
        raise ValueError("rate and packet size must be positive")
    pps = rate_bps / (packet_size * 8.0)
    return FlowSpec(
        idt=ConstantVariate(1.0 / pps),
        ps=ConstantVariate(packet_size),
        duration=duration,
        dport=dport,
        meter=meter,
        name=name or f"cbr-{int(rate_bps / 1000)}k",
    )
