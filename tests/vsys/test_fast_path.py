"""Edge cases of a vsys request served in the caller's dispatch.

A request that finds the back-end idle runs in the caller's dispatch,
and a handler that returns without yielding leaves its reply on
``.out`` before :meth:`VsysConnection.call` returns: the call hands
back a process that has already returned, and ``call_blocking`` does
not walk the engine.  Busy and closed connections, replies owed to
interrupted calls, truncated requests and crashing handlers must keep
their meaning on that path.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.process import spawn
from repro.testbed.scenarios import OneLabScenario
from repro.vsys.daemon import VsysDaemon, VsysError, VsysResult

DESTINATION = "138.96.250.100"


def _connection(sim, handler):
    daemon = VsysDaemon(sim, "node")
    daemon.register("script", handler, acl=["s"])
    conn = daemon.open("s", "script")
    sim.run()  # the back-end loop blocks on the empty ``.in`` pipe
    return conn


def _served_in_place(conn, argv):
    """Call and check that nothing was spawned or scheduled for it."""
    sim = conn._sim
    pending = sim.pending_count()
    process = conn.call(argv)
    assert not process.alive
    assert sim.pending_count() == pending
    return process.value


def test_second_call_while_start_is_in_flight_is_busy():
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    start = umts.start()
    assert start.alive
    with pytest.raises(VsysError, match="busy"):
        umts.status()
    with pytest.raises(VsysError, match="busy"):
        umts.add_destination(DESTINATION)
    scenario.sim.run(until=scenario.sim.now + 60.0)
    assert start.value.ok, start.value.text
    added = _served_in_place(umts._conn, ["add", DESTINATION])
    assert added == VsysResult(0, [f"umts: {DESTINATION} will be reached via the UMTS connection"])


def test_reply_owed_to_an_interrupted_start_is_skipped_by_the_next_add():
    scenario = OneLabScenario(seed=3)
    sim = scenario.sim
    conn = scenario.umts_command()._conn
    start = conn.call(["start"])
    sim.schedule(0.5, start.interrupt, "cancelled")
    sim.run(until=60.0)
    assert start.value is None
    assert conn._stale == 1
    assert len(conn.pipe.to_frontend) == 1  # the start's reply, unread
    added = _served_in_place(conn, ["add", DESTINATION])
    assert added.lines == [f"umts: {DESTINATION} will be reached via the UMTS connection"]
    assert conn._stale == 0
    assert len(conn.pipe.to_frontend) == 0
    assert list(scenario.napoli.umts_backend.isolation.destinations) == [DESTINATION]


def test_truncated_request_gets_the_unparsable_reply_in_place():
    sim = Simulator()
    seen = []

    def handler(slice_name, argv):
        seen.append(argv)
        return 0, ["handled"]

    conn = _connection(sim, handler)
    FaultPlan.from_spec("vsys:truncate_request@count=1").install(sim)
    result = _served_in_place(conn, ["add", "two words"])
    assert result.code == 1
    assert result.lines == ["vsys: unparsable request: No closing quotation"]
    assert conn.pipe.truncated_requests == 1
    assert seen == []
    assert _served_in_place(conn, ["add", "two words"]) == VsysResult(0, ["handled"])
    assert seen == [["add", "two words"]]


@pytest.mark.parametrize("as_generator", [False, True])
def test_handler_that_raises_gets_exit_1_in_place(as_generator):
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    def handler(slice_name, argv):
        if as_generator:
            def body():
                boom()
                yield 1.0
            return body()
        boom()

    conn = _connection(sim, handler)
    assert _served_in_place(conn, ["go"]) == VsysResult(1, ["error: boom"])
    assert _served_in_place(conn, ["again"]) == VsysResult(1, ["error: boom"])
    assert sim.now == 0.0


def test_call_after_close_still_refuses():
    sim = Simulator()
    conn = _connection(sim, lambda slice_name, argv: (0, ["ok"]))
    assert _served_in_place(conn, ["go"]).ok
    conn.close()
    with pytest.raises(VsysError, match="closed"):
        conn.call(["go"])
    with pytest.raises(VsysError, match="closed"):
        conn.call_blocking(["go"])
    sim.run()
    assert sim.pending_count() == 0


def test_process_caller_resumes_with_the_finished_result_at_the_same_time():
    sim = Simulator()
    conn = _connection(sim, lambda slice_name, argv: (0, [" ".join(argv)]))
    results = []

    def caller():
        yield 2.0
        result = yield conn.call(["hello", "world"])
        results.append((result, sim.now))

    spawn(sim, caller())
    sim.run()
    assert results == [(VsysResult(0, ["hello world"]), 2.0)]
