"""The FIFO pipe pair underlying a vsys connection."""

from __future__ import annotations

from typing import Any, List

from repro.sim.engine import Simulator
from repro.sim.process import Store

#: Sentinel object closing a pipe (the writer's EOF).
EOF = object()


class FifoPair:
    """Two unidirectional pipes between a slice and the root context.

    ``to_backend`` carries request lines written by the front-end;
    ``to_frontend`` carries whole replies written by the back-end, one
    ``(code, lines)`` item per request.  Real vsys materializes these
    as ``/vsys/<script>.in`` and ``.out`` FIFOs inside the slice's
    filesystem.

    Writes go through :meth:`send_request` / :meth:`send_reply`, which
    consult the ``vsys`` fault point: a request line can arrive
    truncated (the short-write hazard of a real FIFO), and each string
    line of a reply can be lost, drawn one by one in order.  The exit
    code and EOF are never faultable — their loss would model a kernel
    bug, not an I/O hazard, and would wedge the peer forever.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self.name = name
        self.to_backend = Store(sim, f"{name}.in")
        self.to_frontend = Store(sim, f"{name}.out")
        self.closed = False
        self.truncated_requests = 0
        self.dropped_responses = 0

    def send_request(self, line: Any) -> None:
        """Front-end → back-end, through the fault layer."""
        if isinstance(line, str):
            faults = self._sim.faults
            if faults is not None and faults.fire("vsys", "truncate_request"):
                self.truncated_requests += 1
                line = line[: max(1, len(line) // 2)]
        self.to_backend.put(line)

    def send_reply(self, code: int, lines: List[Any]) -> None:
        """Back-end → front-end as one item, through the fault layer."""
        faults = self._sim.faults
        kept = []
        for line in lines:
            if (faults is not None and isinstance(line, str)
                    and faults.fire("vsys", "drop_response")):
                self.dropped_responses += 1
            else:
                kept.append(line)
        self.to_frontend.put((code, kept))

    def close(self) -> None:
        """Close the pair: both endpoints see EOF and exit."""
        if not self.closed:
            self.closed = True
            self.to_backend.put(EOF)
            self.to_frontend.put(EOF)
