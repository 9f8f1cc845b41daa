"""The §3 characterization experiment, runnable on either path.

Reproduces the paper's methodology: D-ITG traffic between the Napoli
node and the INRIA node, either **UMTS-to-Ethernet** (the slice starts
the UMTS connection, registers the INRIA node as a destination, and
its probes leave through ``ppp0``) or **Ethernet-to-Ethernet** (the
same flow over the wired path).  QoS samples are averaged over 200 ms
windows by the decoder, like the figures.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, List, Optional

from repro.sim.monitor import TimeSeries
from repro.testbed.scenarios import OneLabScenario
from repro.traffic.decoder import FlowSummary, ItgDecoder
from repro.traffic.flows import FlowSpec
from repro.traffic.receiver import ItgReceiver
from repro.traffic.sender import ItgSender

PATH_UMTS = "umts"
PATH_ETHERNET = "ethernet"


class ExperimentError(Exception):
    """Scenario management failure (umts start/stop, bad path name)."""


class ExperimentResult:
    """Everything one run produces."""

    def __init__(
        self,
        scenario: OneLabScenario,
        path: str,
        spec: FlowSpec,
        sender: ItgSender,
        receiver: ItgReceiver,
        decoder: ItgDecoder,
        rab_history: Optional[TimeSeries] = None,
    ):
        self.scenario = scenario
        self.path = path
        self.spec = spec
        self.sender = sender
        self.receiver = receiver
        self.decoder = decoder
        #: the RAB grade changes during the run (UMTS path only).
        self.rab_history = rab_history

    @cached_property
    def summary(self) -> FlowSummary:
        """End-of-run aggregate statistics, decoded once: the run is over."""
        return self.decoder.summary()

    def bitrate_kbps(self) -> TimeSeries:
        """Figure-style received bitrate series (kbit/s per 200 ms)."""
        return self.decoder.bitrate_kbps()

    def jitter_series(self) -> TimeSeries:
        """Figure-style jitter series (s per 200 ms)."""
        return self.decoder.jitter_series()

    def loss_series(self) -> TimeSeries:
        """Figure-style loss series (pkt per 200 ms)."""
        return self.decoder.loss_series()

    def rtt_series(self) -> TimeSeries:
        """Figure-style RTT series (s per 200 ms)."""
        return self.decoder.rtt_series()


DIRECTION_UPLINK = "uplink"
DIRECTION_DOWNLINK = "downlink"


def run_characterization(
    spec: FlowSpec,
    path: str = PATH_UMTS,
    seed: int = 0,
    scenario: Optional[OneLabScenario] = None,
    operator_factory: Optional[Callable] = None,
    direction: str = DIRECTION_UPLINK,
) -> ExperimentResult:
    """Run one flow over one path and decode the logs.

    Builds a fresh :class:`OneLabScenario` unless one is supplied.  On
    the UMTS path the slice performs the full ``umts start`` /
    ``umts add <INRIA>`` / traffic / ``umts stop`` sequence through
    vsys, exactly as §3.1 describes.

    ``direction`` selects who generates: ``"uplink"`` is the paper's
    setup (Napoli sends); ``"downlink"`` reverses it — the INRIA node
    sends toward the UMTS-equipped node, whose receiver binds to the
    mobile address (the paper's "explicitly bind to the UMTS
    interface" usage) so its echoes ride the source-address RPDB rule.
    Because the commercial GGSN firewalls unsolicited inbound traffic,
    the downlink receiver first punches the flow open with one control
    datagram, the way D-ITG's mobile-initiated signalling would.
    """
    if path not in (PATH_UMTS, PATH_ETHERNET):
        raise ExperimentError(f"unknown path {path!r}")
    if direction not in (DIRECTION_UPLINK, DIRECTION_DOWNLINK):
        raise ExperimentError(f"unknown direction {direction!r}")
    if scenario is None:
        kwargs = {"seed": seed}
        if operator_factory is not None:
            kwargs["operator_factory"] = operator_factory
        scenario = OneLabScenario(**kwargs)
    sim = scenario.sim
    umts = None
    rab_history = None
    if path == PATH_UMTS:
        umts = scenario.umts_command()
        started = umts.start_blocking()
        if not started.ok:
            raise ExperimentError(f"umts start failed: {started.text}")
        if direction == DIRECTION_UPLINK:
            added = umts.add_destination_blocking(scenario.inria_addr)
            if not added.ok:
                raise ExperimentError(f"umts add failed: {added.text}")
        # The operator serving the card: a visited one when it roams.
        serving = scenario.napoli.modem.network.operator
        rab_history = serving.calls[0].rab.grade_history
    if direction == DIRECTION_UPLINK:
        receiver = ItgReceiver(sim, scenario.inria_sliver.socket(), port=spec.dport)
        sender_socket = scenario.napoli_sliver.socket()
        destination = scenario.inria_addr
    else:
        receiver_socket = scenario.napoli_sliver.socket()
        if path == PATH_UMTS:
            mobile_address = scenario.umts_address()
            receiver_socket.bind(address=mobile_address, port=spec.dport)
            receiver = ItgReceiver(sim, receiver_socket, port=spec.dport)
            # Punch the operator's ingress filter open (mobile-initiated).
            receiver_socket.sendto("hole-punch", 8, scenario.inria_addr, spec.dport)
            sim.run(until=sim.now + 2.0)
            destination = mobile_address
        else:
            receiver = ItgReceiver(sim, receiver_socket, port=spec.dport)
            destination = scenario.napoli_addr
        sender_socket = scenario.inria_sliver.socket()
    sender = ItgSender(
        sim,
        sender_socket,
        destination,
        spec,
        scenario.streams.stream(f"itg.{spec.name}"),
    )
    sender.start()
    sim.run(until=sim.now + spec.duration + 20.0)  # drain in-flight packets
    if umts is not None:
        stopped = umts.stop_blocking()
        if not stopped.ok:
            raise ExperimentError(f"umts stop failed: {stopped.text}")
    decoder = ItgDecoder(sender.log, receiver.log_for(sender.flow_id))
    return ExperimentResult(
        scenario, path, spec, sender, receiver, decoder, rab_history
    )


def run_repetitions(
    spec_factory: Callable[[], FlowSpec],
    path: str,
    repetitions: int = 20,
    base_seed: int = 1000,
) -> List[FlowSummary]:
    """§3.1's repeatability protocol: N independent runs, fresh seeds.

    Returns the per-run summaries ("each measurement experiment was
    executed 20 times and very similar results were obtained").
    """
    summaries = []
    for repetition in range(repetitions):
        result = run_characterization(
            spec_factory(),
            path=path,
            seed=base_seed + repetition,
        )
        summaries.append(result.summary)
    return summaries
