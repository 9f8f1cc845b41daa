"""Differential oracle: vsys calls served in the caller's dispatch vs
the Store-only FIFO protocol.

The reference below is the vsys plumbing as it was before an idle
back-end served a request in the caller's dispatch: every request line
and every reply crossed its pipe as a ``Store.put`` (a zero-delay
engine event), a spawned front-end process wrote each request, and
``call_blocking`` always walked the engine.  For generated schedules
of calls (from processes and from ``call_blocking``), handlers that
return at once, take simulated time or raise, ``truncate_request``
and ``drop_response`` faults, interrupts and ``close``, both must give
the same replies at the same simulated times, invoke the handler in
the same order at the same times, and count the same faults.
"""

import inspect
import random
import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.errors import VsysProtocolError
from repro.faults.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.process import Interrupt, Store, spawn
from repro.vsys.daemon import VsysDaemon, VsysError, VsysResult, _parse_request

EOF = object()


class ReferencePipe:
    """The FIFO pair with plain puts in both directions."""

    def __init__(self, sim):
        self._sim = sim
        self.to_backend = Store(sim, "ref.in")
        self.to_frontend = Store(sim, "ref.out")
        self.closed = False
        self.truncated_requests = 0
        self.dropped_responses = 0

    def send_request(self, line):
        if isinstance(line, str):
            faults = self._sim.faults
            if faults is not None and faults.fire("vsys", "truncate_request"):
                self.truncated_requests += 1
                line = line[: max(1, len(line) // 2)]
        self.to_backend.put(line)

    def send_reply(self, code, lines):
        faults = self._sim.faults
        kept = []
        for line in lines:
            if (faults is not None and isinstance(line, str)
                    and faults.fire("vsys", "drop_response")):
                self.dropped_responses += 1
            else:
                kept.append(line)
        self.to_frontend.put((code, kept))

    def close(self):
        if not self.closed:
            self.closed = True
            self.to_backend.put(EOF)
            self.to_frontend.put(EOF)


def reference_backend(pipe, slice_name, handler):
    """The back-end loop, minus tracing and metrics."""
    while True:
        line = yield pipe.to_backend.get()
        if line is EOF:
            return
        try:
            argv = _parse_request(line)
        except VsysProtocolError as exc:
            pipe.send_reply(1, [f"vsys: unparsable request: {exc}"])
            continue
        try:
            outcome = handler(slice_name, argv)
            if inspect.isgenerator(outcome):
                outcome = yield from outcome
            code, lines = outcome if outcome is not None else (0, [])
        except Exception as exc:
            code, lines = 1, [f"error: {exc}"]
        pipe.send_reply(code, lines)


class ReferenceConnection:
    """The slice side: a spawned front-end per call, one walk per
    blocking call."""

    def __init__(self, sim, slice_name, handler):
        self._sim = sim
        self.script = "script"
        self.pipe = ReferencePipe(sim)
        self._inflight = None
        self._stale = 0
        self.closed = False
        spawn(sim, reference_backend(self.pipe, slice_name, handler), name="ref-backend")

    def call(self, argv, *, _stop=False):
        if self.closed:
            raise VsysError(f"connection to {self.script!r} is closed")
        if self._inflight is not None and self._inflight.alive:
            raise VsysError(f"connection to {self.script!r} is busy")
        line = " ".join(shlex.quote(arg) for arg in argv)
        self._inflight = spawn(self._sim, self._frontend(line, _stop), name="ref-call")
        return self._inflight

    def _frontend(self, line, stop):
        self.pipe.send_request(line)
        try:
            reply = yield self.pipe.to_frontend.get()
            while self._stale and reply is not EOF:
                self._stale -= 1
                reply = yield self.pipe.to_frontend.get()
        except Interrupt:
            self._stale += 1
            if stop:
                self._sim.stop()
            raise
        if stop:
            self._sim.stop()
        if reply is EOF:
            return VsysResult(1, ["vsys: connection closed"])
        return VsysResult(*reply)

    def call_blocking(self, argv):
        process = self.call(argv, _stop=True)
        sim = self._sim
        while process.alive:
            if not sim.pending_count():
                raise VsysError(f"vsys call {argv!r} deadlocked (no pending events)")
            sim.run()
        return process.value

    def close(self):
        self.closed = True
        self.pipe.close()


def _real_connection(sim, handler):
    daemon = VsysDaemon(sim, "node")
    daemon.register("script", handler, acl=["s"])
    return daemon.open("s", "script")


def _reference_connection(sim, handler):
    return ReferenceConnection(sim, "s", handler)


#: How a handler answers: at once (a plain function, or a generator
#: that returns without yielding), after simulated time (zero or not),
#: or by raising before or after it yields.
_KINDS = ["plain", "gen", "wait0", "wait", "raise", "raise-late"]
_LINE = st.one_of(st.text(max_size=6), st.integers(min_value=0, max_value=9))
_CALL = st.tuples(
    st.just("call"),
    st.sampled_from(["process", "blocking"]),
    st.sampled_from(_KINDS),
    st.integers(min_value=0, max_value=2),  # exit code
    st.lists(_LINE, max_size=3),
)
_OP = st.one_of(
    _CALL,
    _CALL,
    _CALL,
    st.just(("interrupt",)),
    st.just(("close",)),
)
_GAP = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])
_SCHEDULE = st.lists(st.tuples(_GAP, _OP), min_size=1, max_size=12)
_SHOTS = st.one_of(
    st.none(),
    st.just(""),
    st.integers(min_value=1, max_value=3).map(lambda n: f"@count={n}"),
    st.sampled_from([0.3, 0.7]).map(lambda p: f"@p={p}"),
)


def _drive(make_connection, schedule, specs, seed):
    """Run one schedule; return everything observable."""
    sim = Simulator()
    registry = FaultPlan.from_spec(*specs).install(sim, rng=random.Random(seed))
    invoked = []
    replies = {}

    def handler(slice_name, argv):
        invoked.append((tuple(argv), sim.now))
        tag = argv[0]
        kind, code, lines = replies[tag]
        lines = [f"reply to {tag}"] + lines  # a mixed-up reply shows
        if kind == "plain":
            return code, lines
        if kind == "raise":
            raise RuntimeError(f"boom {tag}")

        def body():
            if kind == "wait0":
                yield 0.0
            elif kind == "wait":
                yield 2.0
            elif kind == "raise-late":
                yield 1.0
                raise RuntimeError(f"late boom {tag}")
            return code, lines

        return body()

    conn = make_connection(sim, handler)
    log = []

    def caller(tag, argv):
        try:
            process = conn.call(argv)
        except VsysError as exc:
            log.append((tag, "refused", str(exc), sim.now))
            return
        result = yield process
        log.append((tag, result, sim.now))

    for index, (gap, op) in enumerate(schedule):
        sim.run(until=sim.now + gap)
        if op[0] == "interrupt":
            if conn._inflight is not None:
                conn._inflight.interrupt("cancelled")
            continue
        if op[0] == "close":
            conn.close()
            continue
        _, how, kind, code, lines = op
        tag = f"r{index}"
        replies[tag] = (kind, code, lines)
        # The quoted word makes a truncated line unparsable.
        argv = [tag, kind, "two words"]
        if how == "process":
            spawn(sim, caller(tag, argv))
            continue
        try:
            log.append((tag, conn.call_blocking(argv), sim.now))
        except VsysError as exc:
            log.append((tag, "refused", str(exc), sim.now))
    sim.run()
    pipe = conn.pipe
    return (log, invoked, sim.now, pipe.truncated_requests, pipe.dropped_responses,
            dict(registry.fired))


@settings(max_examples=400, deadline=None)
@given(
    schedule=_SCHEDULE,
    drop=_SHOTS,
    truncate=_SHOTS,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_served_in_place_matches_the_store_only_protocol(schedule, drop, truncate, seed):
    specs = []
    if drop is not None:
        specs.append("vsys:drop_response" + drop)
    if truncate is not None:
        specs.append("vsys:truncate_request" + truncate)
    new = _drive(_real_connection, schedule, specs, seed)
    old = _drive(_reference_connection, schedule, specs, seed)
    assert new == old


def test_a_stale_reply_and_an_interrupted_slow_call():
    """A hand-picked schedule: a slow call is interrupted, the next
    call finds the back-end still busy and skips the slow call's reply,
    and the calls after it are served in place."""
    schedule = [
        (0.0, ("call", "process", "wait", 0, ["slow"])),
        (0.25, ("interrupt",)),
        (0.0, ("call", "blocking", "plain", 0, ["queued"])),
        (0.0, ("call", "blocking", "gen", 2, ["fast"])),
        (0.0, ("call", "process", "raise", 0, [])),
        (1.0, ("close",)),
        (0.0, ("call", "blocking", "plain", 0, [])),
    ]
    new = _drive(_real_connection, schedule, [], 0)
    assert new == _drive(_reference_connection, schedule, [], 0)
    assert new[0] == [
        ("r0", None, 0.25),
        ("r2", VsysResult(0, ["reply to r2", "queued"]), 2.0),
        ("r3", VsysResult(2, ["reply to r3", "fast"]), 2.0),
        ("r4", VsysResult(1, ["error: boom r4"]), 2.0),
        ("r6", "refused", "connection to 'script' is closed", 3.0),
    ]
    assert [argv[0] for argv, _ in new[1]] == ["r0", "r2", "r3", "r4"]
