"""The scenario grammar's validated spec layer.

A :class:`ScenarioSpec` is a frozen, declarative description of one
workload shape over the OneLab testbed, composed from four independent
dimensions (SimuLTE's scenario catalogue and open5Gcube's modular lab
configs are the models):

- :class:`RateLadderSpec` — which RATs the bearer ladder spans
  (GPRS/EDGE/UMTS/HSDPA) and the explicit mid-call RAB renegotiations
  that walk it;
- :class:`HandoverSpec` — inter-cell handovers, each landing on a cell
  of a given signal strength (the driver renegotiates the bearer to
  the grade the new signal supports);
- :class:`RoamingSpec` — whether the card camps on a visited operator,
  built next to the home one, instead of home;
- :class:`RemoteSimSpec` — MobileAtlas-style remote-SIM tunnelling:
  AT-command latency and loss injected at the modem serial layer.

Specs validate eagerly on construction, so a typo can never produce a
scenario that silently does nothing.  Fleet node specs and campaign
job payloads carry grammar-point names, never specs (see
:mod:`repro.scenarios.grammar`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Uplink rate each radio access technology sustains, in bit/s,
#: ascending.  The ladder a spec names must be a subsequence of this
#: order, so every ladder satisfies RabConfig's ascending-grades rule
#: and "QoS monotone with the rate ladder" is well defined.
RAT_RATES: Dict[str, float] = {
    "gprs": 21_400.0,
    "edge": 118_400.0,
    "umts": 384_000.0,
    "hsdpa": 1_460_000.0,
}

#: Canonical RAT order (the keys above, slowest first).
RAT_ORDER: Tuple[str, ...] = tuple(RAT_RATES)


class ScenarioSpecError(ValueError):
    """A scenario spec is malformed or names unknown grammar values."""


def _check_schedule(times: Tuple[float, ...], what: str) -> None:
    """Event times must be positive and strictly increasing."""
    last = 0.0
    for at in times:
        if at <= last:
            raise ScenarioSpecError(
                f"{what} times must be positive and strictly increasing, "
                f"got {list(times)}"
            )
        last = at


@dataclass(frozen=True)
class RateLadderSpec:
    """The bearer ladder and the renegotiations that walk it.

    ``rats`` is an ordered subset of :data:`RAT_ORDER`; ``moves`` is a
    schedule of ``(at, target_index)`` explicit renegotiations driven
    through :meth:`~repro.umts.rab.RabController.renegotiate`.  Demand
    adaptation is disabled for ladder scenarios: the ladder is walked
    by the spec, not the backlog, so the QoS timeline is a pure
    function of the grammar point.
    """

    rats: Tuple[str, ...] = ("umts",)
    initial: int = 0
    moves: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.rats:
            raise ScenarioSpecError("ladder needs at least one RAT")
        unknown = [rat for rat in self.rats if rat not in RAT_RATES]
        if unknown:
            raise ScenarioSpecError(
                f"unknown RAT(s) {unknown} (known: {', '.join(RAT_ORDER)})"
            )
        order = [RAT_ORDER.index(rat) for rat in self.rats]
        if order != sorted(set(order)):
            raise ScenarioSpecError(
                f"ladder must list distinct RATs slowest-first, got {list(self.rats)}"
            )
        if not 0 <= self.initial < len(self.rats):
            raise ScenarioSpecError(
                f"initial ladder index {self.initial} outside 0..{len(self.rats) - 1}"
            )
        _check_schedule(tuple(at for at, _ in self.moves), "ladder move")
        for at, target in self.moves:
            if not 0 <= target < len(self.rats):
                raise ScenarioSpecError(
                    f"ladder move at t={at:g} targets index {target}, "
                    f"outside 0..{len(self.rats) - 1}"
                )

    @property
    def rates(self) -> Tuple[float, ...]:
        """The ladder in bit/s, ascending."""
        return tuple(RAT_RATES[rat] for rat in self.rats)

    def rab_config(self):
        """The :class:`~repro.umts.rab.RabConfig` realizing this ladder."""
        from repro.umts.rab import RabConfig

        return RabConfig(
            grades=list(self.rates),
            initial_grade_index=self.initial,
            adaptation_enabled=False,
        )


@dataclass(frozen=True)
class HandoverSpec:
    """Inter-cell handovers: ``(at, target_cell_csq)`` events.

    Each event re-camps the card on a fresh cell of the serving
    operator whose signal strength is ``csq`` (the ``AT+CSQ`` 0..31
    scale); the harness then renegotiates the bearer to the grade that
    signal supports (:func:`~repro.scenarios.instantiate.signal_grade_cap`).
    """

    events: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        _check_schedule(tuple(at for at, _ in self.events), "handover")
        for at, csq in self.events:
            if not 0 <= csq <= 31:
                raise ScenarioSpecError(
                    f"handover at t={at:g} has CSQ {csq}, outside 0..31"
                )


@dataclass(frozen=True)
class RoamingSpec:
    """Whether the card roams onto a visited operator before dialing."""

    visit: bool = False


@dataclass(frozen=True)
class RemoteSimSpec:
    """MobileAtlas-style remote-SIM tunnel degradation.

    When ``tunnel`` is set, every AT line crosses a wide-area tunnel:
    ``latency`` seconds are added per line and the first ``loss_count``
    lines are lost outright.  The user plane stays local (PPP frames
    are unaffected), matching the MobileAtlas split.
    """

    tunnel: bool = False
    latency: float = 0.0
    loss_count: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ScenarioSpecError(f"latency must be >= 0, got {self.latency}")
        if self.loss_count < 0:
            raise ScenarioSpecError(
                f"loss_count must be >= 0, got {self.loss_count}"
            )
        if not self.tunnel and (self.latency or self.loss_count):
            raise ScenarioSpecError(
                "latency/loss_count given without tunnel=True"
            )

    def fault_specs(self) -> Tuple[str, ...]:
        """The :mod:`repro.faults` plan entries realizing the tunnel."""
        specs = []
        if self.tunnel and self.loss_count:
            specs.append(f"serial:at_drop@t=0,count={self.loss_count}")
        if self.tunnel and self.latency:
            specs.append(f"serial:latency@t=0,delay={self.latency:g}")
        return tuple(specs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of the scenario grammar, fully validated."""

    name: str
    ladder: RateLadderSpec = field(default_factory=RateLadderSpec)
    handover: HandoverSpec = field(default_factory=HandoverSpec)
    roaming: RoamingSpec = field(default_factory=RoamingSpec)
    remote_sim: RemoteSimSpec = field(default_factory=RemoteSimSpec)
    hold: float = 60.0
    deadline: float = 600.0
    seed: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioSpecError("scenario needs a name")
        if self.hold <= 0:
            raise ScenarioSpecError(f"hold must be positive, got {self.hold}")
        if self.deadline <= self.hold:
            raise ScenarioSpecError(
                f"deadline {self.deadline:g} must exceed hold {self.hold:g}"
            )
        # Eager fault validation, like fleet specs: a bad tunnel spec
        # fails here, not mid-campaign inside a worker.
        from repro.faults.plan import FaultPlan, FaultSpecError

        try:
            FaultPlan.from_spec(*self.remote_sim.fault_specs())
        except FaultSpecError as exc:  # pragma: no cover - defensive
            raise ScenarioSpecError(f"remote-SIM faults invalid: {exc}") from exc
