"""D-ITG reproduction — synthetic traffic generation and QoS decoding.

The paper's measurements use D-ITG (Distributed Internet Traffic
Generator, by the same research group): a sender producing packet
streams whose inter-departure times (IDT) and packet sizes (PS) follow
configurable stochastic processes, a receiver logging arrivals, and a
decoder (ITGDec) computing bitrate, jitter, packet loss and RTT over
non-overlapping windows (200 ms in the paper).

The pieces map one-to-one:

- :class:`FlowSpec` (+ the :func:`voip_g711` / :func:`cbr` factories) —
  the workload definitions, including the paper's two flows;
- :class:`ItgSender` — ITGSend: one self-rescheduling callback per
  flow, RTT metering via receiver echoes;
- :class:`ItgReceiver` — ITGRecv: logs arrivals, echoes RTT probes;
- :class:`ItgDecoder` — ITGDec: windowed QoS series and summaries.
"""

from repro.traffic.decoder import FlowSummary, ItgDecoder
from repro.traffic.flows import FlowSpec, cbr, voip_g711
from repro.traffic.records import ProbePayload, ReceiverLog, RecvRecord, SenderLog, SentRecord
from repro.traffic.receiver import ItgReceiver
from repro.traffic.script import ItgScriptRunner, ScriptError, ScriptFlow, parse_script
from repro.traffic.sender import ItgSender

__all__ = [
    "FlowSpec",
    "FlowSummary",
    "ItgDecoder",
    "ItgReceiver",
    "ItgScriptRunner",
    "ItgSender",
    "ScriptError",
    "ScriptFlow",
    "ProbePayload",
    "ReceiverLog",
    "RecvRecord",
    "SenderLog",
    "SentRecord",
    "cbr",
    "parse_script",
    "voip_g711",
]
