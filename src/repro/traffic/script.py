"""D-ITG script mode — `ITGSend <script_file>`.

Real D-ITG can generate many flows at once, one per line of a script
file, each line using the ITGSend command flags.  This module parses
the subset of that flag language the experiments need and runs the
resulting flows concurrently:

====  =======================================  =================
flag  meaning                                  maps to
====  =======================================  =================
-a    destination address                      sender destination
-rp   destination (receiver) port              ``FlowSpec.dport``
-t    duration in **milliseconds**             ``FlowSpec.duration``
-C    constant rate, packets/s                 constant IDT
-E    exponentially distributed IDT, mean pps  exponential IDT
-O    Poisson arrivals, mean pps (alias of -E) exponential IDT
-c    constant payload size, bytes             constant PS
-u    uniform payload size: min max            uniform PS
-n    normal payload size: mean stdev          normal PS
-m    meter: ``rttm`` or ``owdm``              ``FlowSpec.meter``
-d    start delay in milliseconds              sender start offset
====  =======================================  =================

Example script (two flows of the paper's §3 plus background noise)::

    -a 138.96.250.100 -rp 8999 -C 100 -c 90 -t 120000 -m rttm
    -a 138.96.250.100 -rp 9001 -E 50 -u 64 512 -t 60000 -m owdm
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.shellwords import split_command
from repro.sim.engine import Simulator
from repro.sim.rng import (
    ConstantVariate,
    ExponentialVariate,
    NormalVariate,
    UniformVariate,
)
from repro.traffic.flows import MAX_PAYLOAD, MIN_PAYLOAD, FlowSpec
from repro.traffic.sender import ItgSender


class ScriptError(Exception):
    """Malformed ITGSend script line."""


class ScriptFlow(NamedTuple):
    """One parsed script line."""

    destination: str
    spec: FlowSpec
    start_delay: float


def parse_script_line(line: str) -> Optional[ScriptFlow]:
    """Parse one ITGSend flag line; returns None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    tokens = split_command(stripped)
    destination: Optional[str] = None
    dport = 8999
    duration = 120.0
    idt = None
    ps = None
    meter = "owd"
    start_delay = 0.0
    i = 0

    def take(count: int) -> List[str]:
        nonlocal i
        values = tokens[i + 1 : i + 1 + count]
        if len(values) < count:
            raise ScriptError(f"flag {tokens[i]!r} missing operands in {line!r}")
        i += count
        return values

    while i < len(tokens):
        flag = tokens[i]
        if flag == "-a":
            destination = take(1)[0]
        elif flag == "-rp":
            dport = int(take(1)[0])
        elif flag == "-t":
            duration = float(take(1)[0]) / 1000.0
        elif flag == "-C":
            idt = ConstantVariate(1.0 / float(take(1)[0]))
        elif flag in ("-E", "-O"):
            idt = ExponentialVariate(1.0 / float(take(1)[0]))
        elif flag == "-c":
            ps = ConstantVariate(float(take(1)[0]))
        elif flag == "-u":
            low, high = take(2)
            ps = UniformVariate(float(low), float(high))
        elif flag == "-n":
            mu, sigma = take(2)
            ps = NormalVariate(
                float(mu), float(sigma), low=MIN_PAYLOAD, high=MAX_PAYLOAD
            )
        elif flag == "-m":
            mode = take(1)[0]
            if mode not in ("rttm", "owdm"):
                raise ScriptError(f"unknown meter {mode!r} in {line!r}")
            meter = "rtt" if mode == "rttm" else "owd"
        elif flag == "-d":
            start_delay = float(take(1)[0]) / 1000.0
        else:
            raise ScriptError(f"unsupported flag {flag!r} in {line!r}")
        i += 1
    if destination is None:
        raise ScriptError(f"script line without -a destination: {line!r}")
    if idt is None:
        idt = ConstantVariate(0.001)  # D-ITG's default 1000 pps
    if ps is None:
        ps = ConstantVariate(512)  # D-ITG's default payload
    spec = FlowSpec(
        idt=idt,
        ps=ps,
        duration=duration,
        dport=dport,
        meter=meter,
        name=f"script:{destination}:{dport}",
    )
    return ScriptFlow(destination, spec, start_delay)


def parse_script(text: str) -> List[ScriptFlow]:
    """Parse a whole script (one flow per non-comment line)."""
    flows = []
    for line in text.splitlines():
        parsed = parse_script_line(line)
        if parsed is not None:
            flows.append(parsed)
    return flows


class ItgScriptRunner:
    """ITGSend in script mode: start every parsed flow concurrently.

    ``socket_factory`` supplies a fresh socket per flow (e.g.
    ``sliver.socket``), matching how ITGSend opens one UDP socket per
    generated flow.
    """

    def __init__(self, sim: Simulator, socket_factory, streams, script_text: str):
        self.sim = sim
        self.flows = parse_script(script_text)
        if not self.flows:
            raise ScriptError("script defines no flows")
        self.senders: List[ItgSender] = []
        for index, flow in enumerate(self.flows):
            sender = ItgSender(
                sim,
                socket_factory(),
                flow.destination,
                flow.spec,
                streams.stream(f"itg-script.{index}"),
            )
            self.senders.append(sender)

    def start(self) -> None:
        """Launch all flows (honouring each one's -d start delay)."""
        for flow, sender in zip(self.flows, self.senders):
            sender.start(at=flow.start_delay)

    @property
    def finished(self) -> bool:
        """True once every flow's sender has fired ``done``."""
        return all(sender.finished for sender in self.senders)
