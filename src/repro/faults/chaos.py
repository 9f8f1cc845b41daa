"""The chaos campaign: the OneLab scenario under declared faults.

Each :class:`ChaosScenario` pairs a :class:`~repro.faults.plan.FaultPlan`
with an expectation — the dial-up stack either **recovers** (service is
delivered despite the faults) or **degrades cleanly** (a terminal
error, no stale lock/rules/interface).  The one outcome that is never
acceptable is a **hung** driver: every layer owns a deadline or an
attempt budget precisely so that a silent modem, a dead FIFO peer or a
lost carrier cannot wedge ``umts start`` forever.

The campaign is seed-deterministic end to end: every scenario runs the
same testbed seed, jitter comes from named RNG streams, and the full
trace (minus wall-clock fields) is folded into a SHA-256 digest —
``repro chaos --check`` runs every scenario twice and requires
bit-identical recovery timelines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.supervisor import ConnectionSupervisor
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import ListSink
from repro.obs.trace import TraceBus, TraceEvent
from repro.sim.process import spawn
from repro.testbed.scenarios import DEFAULT_SLICE_NAME, OneLabScenario

#: Outcome labels (also the JSONL vocabulary).
RECOVERED = "recovered"
DEGRADED = "degraded"
HUNG = "hung"
DIRTY = "dirty"


@dataclass(frozen=True)
class ChaosScenario:
    """One campaign entry: a fault plan plus the expected outcome."""

    name: str
    description: str
    specs: Tuple[str, ...]
    expected: str
    supervise: bool = False
    hold: float = 60.0
    deadline: float = 600.0
    seed: int = 3


#: The built-in single-fault matrix.  ``expected`` encodes the contract:
#: *recovered* — retry/backoff (or FSM retransmission, or the
#: supervisor) absorbs the fault and service is delivered end to end;
#: *degraded* — the fault is unrecoverable within the attempt budget,
#: and the stack reports a terminal error with no state left behind.
BUILTIN_SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario(
        "baseline",
        "no faults at all: the control run the campaign's digests anchor to",
        (),
        RECOVERED,
    ),
    ChaosScenario(
        "serial_drop",
        "the modem swallows its first two response lines (dead firmware moment)",
        ("serial:drop@t=0,count=2",),
        RECOVERED,
    ),
    ChaosScenario(
        "serial_garble",
        "line noise garbles the first two modem responses",
        ("serial:garble@t=0,count=2",),
        RECOVERED,
    ),
    ChaosScenario(
        "registration_cme",
        "AT+CREG? answers '+CME ERROR: no network service' twice",
        ("registration:cme_error@t=0,count=2",),
        RECOVERED,
    ),
    ChaosScenario(
        "registration_denied",
        "the network denies registration (permanent: no retry should happen)",
        ("registration:denied@t=0",),
        DEGRADED,
    ),
    ChaosScenario(
        "registration_slow",
        "the card reports 'searching' for 30 s before finding the network",
        ("registration:searching@t=0,for=30",),
        RECOVERED,
    ),
    ChaosScenario(
        "dial_no_carrier",
        "the first PDP activation is rejected with NO CARRIER",
        ("dial:no_carrier@t=0,count=1",),
        RECOVERED,
    ),
    ChaosScenario(
        "dial_dead",
        "every dial attempt ends in NO CARRIER (no coverage for data)",
        ("dial:no_carrier@t=0",),
        DEGRADED,
    ),
    ChaosScenario(
        "lcp_loss",
        "the first two outbound LCP frames are lost (LCP retransmits)",
        ("ppp:lcp_drop@t=0,count=2",),
        RECOVERED,
    ),
    ChaosScenario(
        "lcp_dead",
        "every outbound LCP frame is lost: negotiation can never complete",
        ("ppp:lcp_drop@t=0",),
        DEGRADED,
    ),
    ChaosScenario(
        "ipcp_stall",
        "the first two outbound IPCP frames are lost (IPCP retransmits)",
        ("ppp:ipcp_stall@t=0,count=2",),
        RECOVERED,
    ),
    ChaosScenario(
        "session_refuse",
        "the operator refuses the first PDP context activation",
        ("session:refuse@t=0,count=1",),
        RECOVERED,
    ),
    ChaosScenario(
        "session_drop",
        "the GGSN kills the session mid-call; nobody re-dials",
        ("session:drop@t=40",),
        DEGRADED,
    ),
    ChaosScenario(
        "session_drop_supervised",
        "the GGSN kills the session mid-call; the supervisor re-dials",
        ("session:drop@t=40",),
        RECOVERED,
        supervise=True,
        hold=90.0,
    ),
    ChaosScenario(
        "rab_preempt",
        "voice traffic preempts the bearer mid-call (rate collapses, call survives)",
        ("session:rab_preempt@t=40",),
        RECOVERED,
    ),
    ChaosScenario(
        "vsys_truncate",
        "the slice's 'start' request line arrives truncated on the FIFO",
        ("vsys:truncate_request@t=0,count=1",),
        DEGRADED,
    ),
    ChaosScenario(
        "vsys_drop_output",
        "one back-end output line is lost on the FIFO (exit code survives)",
        ("vsys:drop_response@t=0,count=1",),
        RECOVERED,
    ),
)


def scenario_names() -> List[str]:
    """The built-in scenario names, campaign order."""
    return [scenario.name for scenario in BUILTIN_SCENARIOS]


def trace_digest(events: Sequence[TraceEvent]) -> str:
    """SHA-256 over the trace, wall-clock fields excluded.

    ``span_end`` events carry a ``wall`` field (host CPU seconds);
    everything else in a trace record is a pure function of the seed.
    Shared with the scenario-grammar harness so every runner's digests
    mean the same thing.
    """
    hasher = hashlib.sha256()
    for event in events:
        record = event.to_dict()
        fields = record.get("fields")
        if fields and "wall" in fields:
            record["fields"] = {k: v for k, v in fields.items() if k != "wall"}
        hasher.update(json.dumps(record, sort_keys=True, default=str).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class Session:
    """The §2.3 session every campaign drives through vsys.

    Construction starts buffering the testbed's trace (and binds an
    optional metrics registry, observation only), so it goes before
    any setup whose events belong in the digest.  :meth:`run` drives
    ``umts start``, the hold, ``umts status`` and ``umts stop`` to the
    deadline and classifies the outcome.
    """

    def __init__(self, testbed: OneLabScenario, metrics: Optional[MetricsRegistry] = None):
        self.testbed = testbed
        sim = testbed.sim
        sim.trace = TraceBus(sim)
        self.trace = sim.trace.attach(ListSink())
        if metrics is not None:
            sim.metrics = metrics

    def run(self, name: str, hold: float, deadline: float) -> Dict[str, Any]:
        """Drive the session and return the report fields every runner shares."""
        testbed = self.testbed
        sim = testbed.sim
        umts = testbed.umts_command()
        replies: Dict[str, Any] = {
            "start": None, "status": None, "stop": None, "finished": False,
        }

        def driver():
            replies["start"] = yield umts.start()
            yield hold
            replies["status"] = yield umts.status()
            if testbed.napoli.connection.is_up:
                replies["stop"] = yield umts.stop()
            replies["finished"] = True

        spawn(sim, driver(), name=name)
        sim.run(until=deadline)

        start, status, stop = replies["start"], replies["status"], replies["stop"]
        hung = not replies["finished"]
        clean = not hung and testbed.napoli.released()
        if hung:
            outcome = HUNG
        elif (
            start.code == 0
            and status.lines[:1] == ["state: up"]
            and stop is not None
            and stop.code == 0
            and clean
        ):
            outcome = RECOVERED
        elif clean:
            outcome = DEGRADED
        else:
            outcome = DIRTY
        events = self.trace.events
        return {
            "outcome": outcome,
            "hung": hung,
            "clean": clean,
            "start_code": None if start is None else start.code,
            "status_lines": None if status is None else list(status.lines),
            "stop_code": None if stop is None else stop.code,
            "events": len(events),
            "sim_time": round(sim.now, 6),
            "digest": trace_digest(events),
        }


def run_scenario(
    scenario: ChaosScenario,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Run one scenario to completion and classify the outcome.

    An optional ``metrics`` registry is attached to the simulator for
    the duration of the run — observation only, so the report (and its
    digest) is identical with or without it.  Campaign workers pass a
    fresh registry per job and ship its snapshot back for merging.
    """
    testbed = OneLabScenario(seed=scenario.seed)
    session = Session(testbed, metrics)
    sim = testbed.sim
    plan = FaultPlan.from_spec(*scenario.specs)
    registry = plan.install(sim, rng=testbed.streams.stream("faults"))
    supervisor: Optional[ConnectionSupervisor] = None
    if scenario.supervise:
        backend = testbed.napoli.umts_backend
        supervisor = ConnectionSupervisor(
            sim,
            testbed.napoli.connection,
            restart=lambda: backend.handler(DEFAULT_SLICE_NAME, ["start"]),
            rng=testbed.streams.stream("supervisor"),
        )
    report = session.run(f"chaos:{scenario.name}", scenario.hold, scenario.deadline)
    if supervisor is not None:
        supervisor.stop()
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "specs": [str(spec) for spec in plan.specs],
        "seed": scenario.seed,
        "supervised": scenario.supervise,
        "expected": scenario.expected,
        "ok": report["outcome"] == scenario.expected,
        "fired": dict(registry.fired),
        "faults_injected": sum(registry.fired.values()),
        "heals": 0 if supervisor is None else supervisor.heals,
        "retries": testbed.napoli.connection.retries,
        **report,
    }
