"""The vsys daemon: script registry, ACLs and back-end execution."""

from __future__ import annotations

import inspect
import shlex
from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Set

from repro.faults.errors import VsysProtocolError
from repro.shellwords import split_command
from repro.sim.engine import Simulator
from repro.sim.process import Interrupt, Process, spawn
from repro.vsys.pipes import EOF, FifoPair


class VsysError(Exception):
    """Script unknown, ACL denial, or protocol misuse."""


class VsysResult(NamedTuple):
    """Outcome of one vsys request: exit code plus output lines."""

    code: int
    lines: List[str]

    @property
    def ok(self) -> bool:
        """True for exit code 0."""
        return self.code == 0

    @property
    def text(self) -> str:
        """The output joined into one string."""
        return "\n".join(self.lines)


#: A back-end handler: ``handler(slice_name, argv)``.  It may be a plain
#: function returning ``(code, lines)`` or a generator (a simulation
#: process body) returning the same — dialing a modem takes simulated
#: time, so the umts back-end is a generator.
Handler = Callable[[str, List[str]], Any]


class VsysConnection:
    """The slice-side endpoint of one (script, slice) FIFO pair."""

    def __init__(self, sim: Simulator, pipe: FifoPair, script: str, slice_name: str):
        self._sim = sim
        self.pipe = pipe
        self.script = script
        self.slice_name = slice_name
        self._inflight: Optional[Process] = None
        #: replies the back-end still owes to interrupted calls; the
        #: next call discards that many before it reads its own.
        self._stale = 0
        self.closed = False

    def call(self, argv: List[str], *, _stop: bool = False) -> Process:
        """Issue one request; returns a process yielding a :class:`VsysResult`.

        Requests are serialized per connection — real FIFOs interleave
        bytes otherwise — so concurrent calls raise :class:`VsysError`.
        The request is written at once: an idle back-end serves it in
        this dispatch, and a reply already on ``.out`` (the handler
        returned without yielding) comes back as a process that has
        already returned.  Otherwise a front-end process waits for it.
        ``_stop`` is for :meth:`call_blocking` (see :meth:`_frontend`).
        """
        if self.closed:
            raise VsysError(f"connection to {self.script!r} is closed")
        if self._inflight is not None and self._inflight.alive:
            raise VsysError(f"connection to {self.script!r} is busy")
        pipe = self.pipe
        pipe.send_request(" ".join(shlex.quote(arg) for arg in argv))
        replies = pipe.to_frontend
        while replies:
            reply = replies.get_nowait()
            if self._stale and reply is not EOF:
                self._stale -= 1
                continue
            self._inflight = Process.returned(
                self._sim, _result(reply), name=f"vsys-call:{self.script}"
            )
            return self._inflight
        # The in-flight process is busy from the moment it is spawned,
        # not from when it first runs: two calls issued in the same
        # instant would otherwise both be accepted and interleave.
        self._inflight = pipe.frontend = spawn(
            self._sim, self._frontend(_stop), name=f"vsys-call:{self.script}"
        )
        return self._inflight

    def _frontend(self, stop: bool) -> Generator[Any, Any, VsysResult]:
        """Resume once with the whole reply.

        With ``stop`` the process ends :meth:`call_blocking`'s engine
        walk in the very dispatch in which it returns (or is interrupted).
        Replies owed to interrupted calls come first and are discarded;
        an EOF among them still ends the call.
        """
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
        return _result(reply)

    def call_blocking(self, argv: List[str]) -> VsysResult:
        """Test/example convenience: issue a call and run the simulator
        until it completes (no walk at all when :meth:`call` returns a
        finished process).  Must not be used from inside a running
        simulation — yield on :meth:`call`'s process there instead.
        Another callback's ``stop()`` only pauses the walk."""
        process = self.call(argv, _stop=True)
        sim = self._sim
        while process.alive:
            if not sim.pending_count():
                raise VsysError(f"vsys call {argv!r} deadlocked (no pending events)")
            sim.run()
        return process.value

    def close(self) -> None:
        """Close the FIFO pair; the back-end exits."""
        self.closed = True
        self.pipe.close()


class VsysDaemon:
    """Script registry plus per-script ACLs for one node."""

    def __init__(self, sim: Simulator, node_name: str = ""):
        self._sim = sim
        self.node_name = node_name
        self._scripts: Dict[str, Handler] = {}
        self._acls: Dict[str, Set[str]] = {}
        self.connections_opened = 0
        self.calls_denied = 0

    def register(self, name: str, handler: Handler, acl: Sequence[str] = ()) -> None:
        """Install a back-end script with an initial ACL."""
        if name in self._scripts:
            raise VsysError(f"script {name!r} already registered")
        self._scripts[name] = handler
        self._acls[name] = set(acl)

    def scripts(self) -> List[str]:
        """Names of the registered scripts."""
        return sorted(self._scripts)

    def allow(self, script: str, slice_name: str) -> None:
        """Add a slice to a script's ACL."""
        self._require_script(script)
        self._acls[script].add(slice_name)

    def deny(self, script: str, slice_name: str) -> None:
        """Remove a slice from a script's ACL."""
        self._require_script(script)
        self._acls[script].discard(slice_name)

    def is_allowed(self, script: str, slice_name: str) -> bool:
        """Whether ``slice_name`` may open ``script``."""
        return slice_name in self._acls.get(script, set())

    def open(self, slice_name: str, script: str) -> VsysConnection:
        """Create the FIFO pair and spawn the root-context back-end.

        This is what materializing ``/vsys/<script>.in|.out`` inside the
        slice does on a real node.
        """
        self._require_script(script)
        if not self.is_allowed(script, slice_name):
            self.calls_denied += 1
            trace = self._sim.trace
            if trace is not None:
                trace.error("vsys.acl_denied", script=script, slice=slice_name)
            metrics = self._sim.metrics
            if metrics is not None:
                metrics.counter("vsys.denied").inc()
            raise VsysError(
                f"slice {slice_name!r} is not in the ACL of vsys script {script!r}"
            )
        pipe = FifoPair(self._sim, f"{self.node_name}/vsys/{script}:{slice_name}")
        handler = self._scripts[script]
        pipe.backend = spawn(
            self._sim,
            self._backend_loop(pipe, slice_name, script, handler),
            name=f"vsys-backend:{script}:{slice_name}",
        )
        self.connections_opened += 1
        return VsysConnection(self._sim, pipe, script, slice_name)

    def _require_script(self, script: str) -> None:
        if script not in self._scripts:
            raise VsysError(f"no vsys script {script!r}")

    def _backend_loop(
        self, pipe: FifoPair, slice_name: str, script: str, handler: Handler
    ) -> Generator[Any, Any, None]:
        """Root-context process servicing one FIFO pair until EOF; each
        request gets its reply as one :meth:`FifoPair.send_reply` item."""
        while True:
            line = yield pipe.to_backend.get()
            if line is EOF:
                return
            try:
                argv = _parse_request(line)
            except VsysProtocolError as exc:
                pipe.send_reply(1, [f"vsys: unparsable request: {exc}"])
                continue
            trace = self._sim.trace
            span = (
                trace.span("vsys.request", script=script, slice=slice_name, argv=line)
                if trace is not None
                else None
            )
            started_at = self._sim.now
            try:
                outcome = handler(slice_name, argv)
                if inspect.isgenerator(outcome):
                    outcome = yield from outcome
                code, lines = outcome if outcome is not None else (0, [])
            except Exception as exc:  # back-end crash → exit 1, like a real script
                code, lines = 1, [f"error: {exc}"]
            if span is not None:
                span.end(status="ok" if code == 0 else "error", code=code)
            metrics = self._sim.metrics
            if metrics is not None:
                metrics.counter("vsys.requests").inc()
                if code != 0:
                    metrics.counter("vsys.failures").inc()
                metrics.histogram("vsys.latency_seconds").observe(
                    self._sim.now - started_at
                )
            pipe.send_reply(code, lines)


def _result(reply: Any) -> VsysResult:
    """The result of one reply item; EOF (the pair was torn down under
    the call) is a clean failure instead of a wait forever."""
    if reply is EOF:
        return VsysResult(1, ["vsys: connection closed"])
    return VsysResult(*reply)


def _parse_request(line: Any) -> List[str]:
    """Split one request line into argv, or raise a *typed* error.

    A truncated FIFO write can land mid-token (an unbalanced quote or a
    trailing backslash, which :func:`repro.shellwords.split_command`
    rejects with ``ValueError``) or deliver something that is not a line
    at all.  Both become :class:`VsysProtocolError`, which the retry
    layer classifies as transient.
    """
    if not isinstance(line, str):
        raise VsysProtocolError(f"expected a request line, got {type(line).__name__}")
    try:
        return split_command(line)
    except ValueError as exc:
        raise VsysProtocolError(str(exc)) from exc
