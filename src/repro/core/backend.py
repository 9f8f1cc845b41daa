"""The vsys back-end of the ``umts`` command.

Runs in the root context of a PlanetLab node and implements the five
operations §2.3 lists for the front-end:

- ``start`` — check and lock the UMTS interface, set up the UMTS
  connection, and enforce the routing rules;
- ``stop`` — tear down the UMTS connection, unlock the interface, and
  delete the routing rules;
- ``status`` — check the status of the connection;
- ``add <destination>`` — add a rule for this destination to be reached
  through the UMTS connection;
- ``del <destination>`` — delete the rule associated to this destination.

The handler is registered with the node's vsys daemon under the script
name ``umts``; slices listed in the ACL reach it through the FIFO
pipes, never touching the privileged objects directly.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.connection import UmtsConnectionManager
from repro.core.errors import UmtsCommandError
from repro.core.isolation import IsolationManager
from repro.core.lock import InterfaceLock
from repro.netfilter.iptables import IptablesError
from repro.routing.iproute2 import IpRouteError
from repro.sim.engine import Simulator

USAGE = "usage: umts start | stop | status | add <destination> | del <destination>"

#: vsys script name the front-end opens.
SCRIPT_NAME = "umts"

#: Static per-command counter names (metric names must be literals —
#: see the ``metric-name`` lint rule; unrecognized input folds into one).
_CMD_COUNTERS = {
    "start": "umts.cmd.start",
    "stop": "umts.cmd.stop",
    "status": "umts.cmd.status",
    "add": "umts.cmd.add",
    "del": "umts.cmd.del",
}


class UmtsBackend:
    """Back-end state for one node's UMTS interface."""

    def __init__(
        self,
        sim: Simulator,
        connection: UmtsConnectionManager,
        isolation: IsolationManager,
        resolve_xid: Callable[[str], int],
    ):
        self.sim = sim
        self.connection = connection
        self.isolation = isolation
        self.resolve_xid = resolve_xid
        self.lock = InterfaceLock(connection.ifname)
        self.events: List[Tuple[float, str]] = []
        connection.went_down.wait(self._on_connection_down)

    # -- vsys entry point ------------------------------------------------

    def handler(self, slice_name: str, argv: List[str]):
        """The vsys handler: dispatches one front-end request.

        Every request runs under an ``umts.cmd`` span; command errors
        emit an error-kind event (the flight-recorder trigger) before
        being rendered as exit-1 output, like the real script.
        """
        if not argv:
            return 1, [USAGE]
        command, args = argv[0], argv[1:]
        trace = self.sim.trace
        span = (
            trace.span("umts.cmd", command=command, slice=slice_name)
            if trace is not None
            else None
        )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(
                _CMD_COUNTERS.get(command, "umts.cmd.unknown")
            ).inc()
        try:
            code, lines = yield from self._dispatch(slice_name, command, args)
        except UmtsCommandError as exc:
            if trace is not None:
                trace.error(
                    "umts.command_error",
                    command=command,
                    slice=slice_name,
                    error=type(exc).__name__,
                    detail=str(exc),
                )
            if metrics is not None:
                metrics.counter("umts.cmd.errors").inc()
            if span is not None:
                span.fail(str(exc))
            return 1, [f"umts: {exc}"]
        except (ValueError, IptablesError, IpRouteError) as exc:
            # A refused ``ip``/``iptables`` line fails the request the
            # way a refused destination does.
            if span is not None:
                span.fail(str(exc))
            return 1, [f"umts: {exc}"]
        if span is not None:
            span.end(status="ok" if code == 0 else "error", code=code)
        return code, lines

    def _dispatch(self, slice_name: str, command: str, args: List[str]):
        """Route one parsed request to its operation."""
        if command == "start" and not args:
            result = yield from self._start(slice_name)
            return result
        if command == "stop" and not args:
            result = yield from self._stop(slice_name)
            return result
        if command == "status" and not args:
            return self._status(slice_name)
        if command == "add" and len(args) == 1:
            return self._add(slice_name, args[0])
        if command == "del" and len(args) == 1:
            return self._del(slice_name, args[0])
        return 1, [USAGE]

    # -- operations ----------------------------------------------------------

    def _start(self, slice_name: str):
        self.lock.acquire(slice_name)
        self._log(f"start: lock acquired by {slice_name}")
        try:
            code, lines = yield from self.connection.connect()
        except BaseException:
            # A fault thrown into the dial (or a kill) must not leave
            # the interface locked by a slice that never got it up.
            self.lock.release(slice_name)
            raise
        if code != 0:
            self.lock.release(slice_name)
            self._log("start: connect failed, lock released")
            return 1, lines
        xid = self.resolve_xid(slice_name)
        self.isolation.install(xid, self.connection.address())
        self._log(f"start: connection up for {slice_name} (xid {xid})")
        lines.append(f"umts: routing rules enforced for slice {slice_name}")
        return 0, lines

    def _stop(self, slice_name: str):
        self.lock.require_owner(slice_name, "stop")
        skipped = self.isolation.remove()
        try:
            code, lines = yield from self.connection.disconnect()
        finally:
            # Rules are already gone; the lock must follow even if the
            # hangup is interrupted, or the interface wedges forever.
            self.lock.release(slice_name)
            self._log(f"stop: connection down, lock released by {slice_name}")
        lines.extend(f"umts: skipped, already gone: {detail}" for detail in skipped)
        lines.append("umts: rules deleted, interface unlocked")
        return code, lines

    def _status(self, slice_name: str) -> Tuple[int, List[str]]:
        lines = list(self.connection.status_lines())
        if self.lock.locked:
            lines.append(f"locked by: {self.lock.holder}")
        else:
            lines.append("interface: unlocked")
        if self.isolation.destinations:
            lines.append(
                "destinations: " + " ".join(sorted(self.isolation.destinations))
            )
        return 0, lines

    def _add(self, slice_name: str, destination: str) -> Tuple[int, List[str]]:
        self.lock.require_owner(slice_name, "add")
        self.isolation.add_destination(destination)
        self._log(f"add: {destination} for {slice_name}")
        return 0, [f"umts: {destination} will be reached via the UMTS connection"]

    def _del(self, slice_name: str, destination: str) -> Tuple[int, List[str]]:
        self.lock.require_owner(slice_name, "del")
        skipped = self.isolation.del_destination(destination)
        self._log(f"del: {destination} for {slice_name}")
        lines = [f"umts: skipped, already gone: {detail}" for detail in skipped]
        lines.append(f"umts: rule for {destination} deleted")
        return 0, lines

    # -- failure cleanup ------------------------------------------------------

    def _on_connection_down(self, reason: str) -> None:
        """Unexpected drops (carrier lost) must not leave stale rules."""
        # The signal's wait() is one-shot; stay subscribed so every
        # drop in a fault-heavy run gets its cleanup, not just the first.
        self.connection.went_down.wait(self._on_connection_down)
        if reason == "umts stop":
            return  # the _stop path already cleaned up
        if self.isolation.active:
            for detail in self.isolation.remove():
                self._log(f"cleanup: skipped, already gone: {detail}")
            self._log(f"cleanup: rules removed after '{reason}'")
        if self.lock.locked:
            holder = self.lock.holder
            self.lock.force_release()
            self._log(f"cleanup: lock of {holder} force-released after '{reason}'")

    def _log(self, message: str) -> None:
        self.events.append((self.sim.now, message))
        trace = self.sim.trace
        if trace is not None:
            trace.emit("umts.backend", message=message)
