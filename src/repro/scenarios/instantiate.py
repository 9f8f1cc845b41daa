"""Instantiating a scenario spec over the OneLab testbed.

:class:`GrammarHarness` turns one validated
:class:`~repro.scenarios.spec.ScenarioSpec` into a live testbed: the
ladder becomes the operator's :class:`~repro.umts.rab.RabConfig`, the
roaming dimension builds a second, visited operator and camps the card
on its cell, handover targets become extra cells on the serving
operator, and the remote-SIM tunnel becomes a
:class:`~repro.faults.plan.FaultPlan` at the serial layer.
:meth:`GrammarHarness.run` drives the chaos campaign's
:class:`~repro.faults.chaos.Session`, so scenario digests and chaos
digests mean the same thing; :meth:`GrammarHarness.arm` schedules only
the mid-call events, for runners (the sweep) that drive their own
workload.  :class:`GrammarEvents` applies those events, here and on
every fleet node that carries a grammar point.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.chaos import Session
from repro.faults.plan import FaultPlan
from repro.scenarios.spec import ScenarioSpec
from repro.testbed.scenarios import OneLabScenario
from repro.umts.operator import UmtsOperator, commercial_operator

#: Gi-side addressing for the visited operator (the home GGSN uses
#: 85.37.17.0/30; the visited one gets its own /30 on the router).
VISITED_GGSN_ADDR = "85.37.19.2"
VISITED_ROUTER_ADDR = "85.37.19.1"
VISITED_POOL_PREFIX = "10.203.0.0/16"
VISITED_GGSN_INTERNAL = "10.203.0.1"
VISITED_OPERATOR_NAME = "FR Mobile (visited)"


def signal_grade_cap(csq: int, grade_count: int) -> int:
    """The highest ladder index a given signal strength supports.

    Maps the ``AT+CSQ`` 0..31 scale onto ladder indices: roughly one
    rung per 7 CSQ points above the noise floor, clamped to the ladder.
    Deterministic and monotone in ``csq``, so signal-driven adaptation
    preserves the QoS-monotone-with-ladder invariant.
    """
    return min(grade_count - 1, max(0, (csq - 2) // 7))


class GrammarEvents:
    """One spec's ladder moves and handovers, posted and applied.

    Posting happens at construction.  ``live_rab`` returns the bearer
    of the card's live call, or ``None`` while no call is up.  A ladder
    move renegotiates that bearer to its target grade, or is counted as
    missed when there is none; a handover re-camps the modem on its
    cell and renegotiates the live bearer, if any, to the grade the new
    signal supports.
    """

    def __init__(
        self,
        sim: Any,
        spec: ScenarioSpec,
        modem: Any,
        handover_cells: Sequence[Tuple[float, int, Any]],
        live_rab: Callable[[], Any],
    ):
        self.modem = modem
        self.grades = len(spec.ladder.rats)
        self.live_rab = live_rab
        self.handovers = 0
        self.moves_applied = 0
        self.moves_missed = 0
        for at, target in spec.ladder.moves:
            sim.post(max(0.0, at - sim.now), self._move, target)
        for at, csq, cell in handover_cells:
            sim.post(max(0.0, at - sim.now), self._handover, cell, csq)

    def _move(self, target: int) -> None:
        rab = self.live_rab()
        if rab is None:
            self.moves_missed += 1
            return
        rab.renegotiate(target)
        self.moves_applied += 1

    def _handover(self, cell: Any, csq: int) -> None:
        self.modem.handover_to(cell)
        self.handovers += 1
        rab = self.live_rab()
        if rab is not None:
            rab.renegotiate(signal_grade_cap(csq, self.grades))


class GrammarHarness:
    """One scenario spec, instantiated and ready to run."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: Optional[int] = None,
        metrics: Any = None,
    ):
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        ladder_config = spec.ladder.rab_config()

        def factory(sim, streams):
            return commercial_operator(sim, streams, rab_config=ladder_config)

        self.testbed = testbed = OneLabScenario(seed=self.seed, operator_factory=factory)
        sim = testbed.sim
        self.session = Session(testbed, metrics)

        # The roaming dimension adds a visited operator serving the
        # home APN and re-camps the card on its cell before anything
        # dials.
        self.serving = testbed.operator
        self.roamed = spec.roaming.visit
        if self.roamed:
            home = self.serving
            self.serving = UmtsOperator(
                sim,
                testbed.streams,
                name=VISITED_OPERATOR_NAME,
                apn=home.apn,
                pool_prefix=VISITED_POOL_PREFIX,
                ggsn_internal=VISITED_GGSN_INTERNAL,
                rab_config=ladder_config,
                block_inbound=True,
                ggsn_name="ggsn.visited",
            )
            self.serving.connect_to_internet(
                testbed.internet.router, VISITED_GGSN_ADDR, VISITED_ROUTER_ADDR
            )
            testbed.napoli.modem.plug_into(self.serving.new_cell(roaming=True))

        # Handover targets: one fresh cell per event, created up front
        # so cell names (cell-1, cell-2, ...) are deterministic.
        self._handover_cells = [
            (at, csq, self.serving.new_cell(base_csq=csq, roaming=self.roamed))
            for at, csq in spec.handover.events
        ]

        # The remote-SIM tunnel (and nothing else) as a fault plan.
        self.plan = FaultPlan.from_spec(*spec.remote_sim.fault_specs())
        self.registry = self.plan.install(sim, rng=testbed.streams.stream("faults"))
        self.events: Optional[GrammarEvents] = None

    def arm(self) -> GrammarEvents:
        """Schedule the spec's mid-call events (idempotent).

        Events that fire before any call is up are counted as missed,
        not errors — a grammar point may put its first move inside the
        dial window.
        """
        if self.events is None:
            self.events = GrammarEvents(
                self.testbed.sim,
                self.spec,
                self.testbed.napoli.modem,
                self._handover_cells,
                self._live_rab,
            )
        return self.events

    def _live_rab(self):
        calls = self.serving.calls
        return calls[0].rab if calls else None

    def run(self) -> Dict[str, Any]:
        """Drive start/hold/status/stop to completion and report."""
        events = self.arm()
        spec = self.spec
        report = self.session.run(f"scenario:{spec.name}", spec.hold, spec.deadline)
        trace = self.session.trace.events
        rab_rates: List[float] = [
            event.fields["rate"]
            for event in trace
            if event.name == "rab.grade" and event.fields
        ]
        return {
            "scenario": spec.name,
            "seed": self.seed,
            # The grammar-wide contract: never hang, never leak.  A
            # degraded-but-clean run is a legal grammar point.
            "ok": not report["hung"] and report["clean"],
            "roamed": self.roamed,
            "operator": self.serving.name,
            "handovers": events.handovers,
            "moves_applied": events.moves_applied,
            "moves_missed": events.moves_missed,
            "renegotiations": sum(
                1 for event in trace if event.name == "rab.renegotiate"
            ),
            "renegotiations_failed": sum(
                1 for event in trace if event.name == "rab.renegotiation_failed"
            ),
            "rab_rates": rab_rates,
            "ladder_rates": list(spec.ladder.rates),
            "fired": dict(self.registry.fired),
            **report,
        }


def run_grammar_scenario(
    spec: ScenarioSpec,
    metrics: Any = None,
) -> Dict[str, Any]:
    """Instantiate and run one grammar point; returns the report."""
    return GrammarHarness(spec, metrics=metrics).run()
