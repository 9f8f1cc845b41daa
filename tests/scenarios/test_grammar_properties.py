"""Property tests over the whole scenario space, not just named points.

The strategy below generates *arbitrary* valid specs — any RAT subset,
any renegotiation schedule, any handover/CSQ sequence, roaming or not,
any remote-SIM tunnel shape — and asserts the grammar-wide contract on
every one of them:

- the driver always finishes (never hangs against the deadline);
- the node is left clean (no lock, no isolation, no ppp0, no routes);
- datacall QoS is monotone with the rate ladder: every bearer rate the
  run ever grants is drawn from the spec's ladder, and the ladder
  itself ascends with the RAT order.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.scenarios import (
    RAT_ORDER,
    HandoverSpec,
    RateLadderSpec,
    RemoteSimSpec,
    RoamingSpec,
    ScenarioSpec,
    enumerate_grammar,
    run_grammar_scenario,
)

_times = st.floats(5.0, 55.0, allow_nan=False, allow_infinity=False)


@st.composite
def ladders(draw):
    """Any non-empty ordered RAT subset with any renegotiation walk."""
    mask = draw(
        st.lists(
            st.booleans(), min_size=len(RAT_ORDER), max_size=len(RAT_ORDER)
        ).filter(any)
    )
    rats = tuple(rat for rat, keep in zip(RAT_ORDER, mask) if keep)
    initial = draw(st.integers(0, len(rats) - 1))
    times = sorted(draw(st.lists(_times, unique=True, max_size=3)))
    moves = tuple((at, draw(st.integers(0, len(rats) - 1))) for at in times)
    return RateLadderSpec(rats=rats, initial=initial, moves=moves)


@st.composite
def handovers(draw):
    """Up to two handovers, onto cells of arbitrary signal strength."""
    times = sorted(draw(st.lists(_times, unique=True, max_size=2)))
    events = tuple((at, draw(st.integers(0, 31))) for at in times)
    return HandoverSpec(events=events)


@st.composite
def remote_sims(draw):
    """A local SIM, or a tunnel with arbitrary latency/loss shape."""
    if not draw(st.booleans()):
        return RemoteSimSpec()
    return RemoteSimSpec(
        tunnel=True,
        latency=draw(st.floats(0.05, 0.8, allow_nan=False)),
        loss_count=draw(st.integers(0, 2)),
    )


@st.composite
def scenario_specs(draw):
    """An arbitrary valid point of the (unnamed) scenario space."""
    return ScenarioSpec(
        name="property",
        ladder=draw(ladders()),
        handover=draw(handovers()),
        roaming=RoamingSpec(visit=draw(st.booleans())),
        remote_sim=draw(remote_sims()),
        seed=draw(st.integers(0, 5)),
    )


@given(spec=scenario_specs())
def test_any_valid_scenario_never_hangs_never_leaks(spec):
    report = run_grammar_scenario(spec)
    # The PR-4 invariants, extended over the whole grammar space.
    assert not report["hung"], report
    assert report["clean"], report
    assert report["ok"], report
    # QoS monotone with the rate ladder.
    ladder = report["ladder_rates"]
    assert ladder == sorted(ladder)
    assert set(report["rab_rates"]) <= set(ladder), report
    # Event accounting: nothing scheduled is silently lost.
    assert report["moves_applied"] + report["moves_missed"] == len(
        spec.ladder.moves
    )
    assert report["handovers"] == len(spec.handover.events)
    assert report["roamed"] is spec.roaming.visit


def test_named_grammar_points_all_run_clean():
    """The 36 named points satisfy the same contract as random ones."""
    for spec in enumerate_grammar():
        report = run_grammar_scenario(spec)
        assert report["ok"], (spec.name, report["outcome"])
        assert set(report["rab_rates"]) <= set(report["ladder_rates"])


def test_scenario_run_is_deterministic():
    spec = enumerate_grammar()[19]  # climb/fade/visit/tunnel
    first = run_grammar_scenario(spec)
    second = run_grammar_scenario(spec)
    assert first["digest"] == second["digest"]
    assert first == second
