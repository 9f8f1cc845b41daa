"""Reference model of the vsys reply protocol: one FIFO item per line.

This is the protocol as it was before a reply became one item.  The
back-end wrote each output line with its own put (each string line
through the ``drop_response`` fault point) and then an exit sentinel;
the front-end resumed once per item until it saw the sentinel or EOF.
It exists only as the oracle of ``tests/vsys/test_reply_protocol.py``.
"""

import inspect
import shlex

from repro.faults.errors import VsysProtocolError
from repro.sim.process import spawn
from repro.vsys.daemon import VsysResult, _parse_request
from repro.vsys.pipes import EOF, FifoPair

EXIT_SENTINEL = "__vsys_exit__"


class ReferencePipe(FifoPair):
    """A :class:`FifoPair` whose back-end writes one line per put."""

    def send_response(self, item):
        if isinstance(item, str):
            faults = self._sim.faults
            if faults is not None and faults.fire("vsys", "drop_response"):
                self.dropped_responses += 1
                return
        self.to_frontend.put(item)


def reference_backend(pipe, slice_name, handler):
    """The back-end loop, minus tracing and metrics."""
    while True:
        line = yield pipe.to_backend.get()
        if line is EOF:
            return
        try:
            argv = _parse_request(line)
        except VsysProtocolError as exc:
            pipe.send_response(f"vsys: unparsable request: {exc}")
            pipe.to_frontend.put((EXIT_SENTINEL, 1))
            continue
        try:
            outcome = handler(slice_name, argv)
            if inspect.isgenerator(outcome):
                outcome = yield from outcome
            code, lines = outcome if outcome is not None else (0, [])
        except Exception as exc:
            code, lines = 1, [f"error: {exc}"]
        for out_line in lines:
            pipe.send_response(out_line)
        pipe.to_frontend.put((EXIT_SENTINEL, code))


def reference_frontend(pipe, argv):
    """One request: resume once per reply line, then once for the code."""
    pipe.send_request(" ".join(shlex.quote(arg) for arg in argv))
    lines = []
    while True:
        item = yield pipe.to_frontend.get()
        if item is EOF:
            lines.append("vsys: connection closed")
            return VsysResult(1, lines)
        if isinstance(item, tuple) and item[0] == EXIT_SENTINEL:
            return VsysResult(item[1], lines)
        lines.append(item)


class ReferenceConnection:
    """The slice side of one reference pipe pair, with its back-end."""

    def __init__(self, sim, slice_name, handler):
        self.pipe = ReferencePipe(sim, "ref")
        self._sim = sim
        spawn(sim, reference_backend(self.pipe, slice_name, handler), name="ref-backend")

    def call(self, argv):
        return spawn(self._sim, reference_frontend(self.pipe, argv), name="ref-call")

    def close(self):
        self.pipe.close()
