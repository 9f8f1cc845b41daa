"""Equivalence: the one-item vsys reply vs the per-line reference protocol.

``tests/vsys/reference_protocol.py`` is the protocol as it was before a
reply became one ``(code, lines)`` item on the FIFO.  For any sequence
of replies, with ``drop_response`` and ``truncate_request`` faults
firing by count or by probability, both must give the same
:class:`VsysResult` at the same simulated instant and count the same
dropped and truncated lines.  ``drop_response`` is drawn once per
string line, in order, so both consume the fault stream alike.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.process import spawn
from repro.vsys.daemon import VsysDaemon, VsysResult
from tests.vsys.reference_protocol import ReferenceConnection

#: The quoted argument turns a truncated request into an unbalanced
#: quote, so truncation also exercises the unparsable-request reply.
ARGV = ["req", "two words"]

_LINE = st.one_of(st.text(max_size=8), st.integers(min_value=0, max_value=9))
_REPLIES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # exit code
        st.lists(_LINE, max_size=5),
        st.booleans(),  # a generator handler that takes simulated time
    ),
    min_size=1,
    max_size=6,
)
#: A fault spec's shot limit: unlimited, a count, a probability or both.
_SHOTS = st.one_of(
    st.none(),
    st.just(""),
    st.integers(min_value=1, max_value=4).map(lambda n: f"@count={n}"),
    st.sampled_from([0.3, 0.7, 1.0]).map(lambda p: f"@p={p}"),
    st.sampled_from([0.5]).map(lambda p: f"@p={p},count=2"),
)


def _real_connection(sim, handler):
    daemon = VsysDaemon(sim, "node")
    daemon.register("script", handler, acl=["s"])
    return daemon.open("s", "script")


def _reference_connection(sim, handler):
    return ReferenceConnection(sim, "s", handler)


def _drive(make_connection, replies, specs, seed):
    """Issue one request per reply in turn; return everything observable."""
    sim = Simulator()
    registry = FaultPlan.from_spec(*specs).install(sim, rng=random.Random(seed))
    handled = iter(replies)

    def slowly(code, lines):
        yield 0.5
        return code, lines

    def handler(slice_name, argv):
        code, lines, slow = next(handled)
        return slowly(code, list(lines)) if slow else (code, list(lines))

    conn = make_connection(sim, handler)
    results = []

    def driver():
        for _ in replies:
            result = yield conn.call(ARGV)
            results.append((result, sim.now))

    spawn(sim, driver())
    sim.run()
    pipe = conn.pipe
    return results, pipe.dropped_responses, pipe.truncated_requests, registry.fired


@settings(max_examples=300, deadline=None)
@given(
    replies=_REPLIES,
    drop=_SHOTS,
    truncate=_SHOTS,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_item_reply_matches_per_line_protocol(replies, drop, truncate, seed):
    specs = []
    if drop is not None:
        specs.append("vsys:drop_response" + drop)
    if truncate is not None:
        specs.append("vsys:truncate_request" + truncate)
    new = _drive(_real_connection, replies, specs, seed)
    old = _drive(_reference_connection, replies, specs, seed)
    assert new == old
    assert len(new[0]) == len(replies)


def test_close_while_generator_handler_runs():
    outcomes = []
    for make_connection in (_real_connection, _reference_connection):
        sim = Simulator()

        def handler(slice_name, argv):
            yield 5.0
            return 0, ["too late"]

        conn = make_connection(sim, handler)
        process = conn.call(ARGV)
        sim.schedule(1.0, conn.close)
        sim.run()
        outcomes.append((process.value, sim.now))
    assert outcomes[0] == outcomes[1] == (VsysResult(1, ["vsys: connection closed"]), 5.0)
