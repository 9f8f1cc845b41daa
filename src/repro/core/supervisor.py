"""The connection supervisor: automatic re-dial after a mid-call death.

The paper's deliverable is *continuous* UMTS reachability for a
PlanetLab node, but the dial-up chain dies for reasons the node cannot
prevent: coverage loss, GGSN session teardown, operator idle timers.
The supervisor watches the connection manager's ``went_down`` signal
and re-runs ``umts start`` under a :class:`~repro.core.retry.RetryPolicy`
— the same machinery a cron-driven watchdog script implements on the
real node.

A deliberate teardown (``umts stop``) must *not* trigger a re-dial, so
that reason is skipped.
"""

from __future__ import annotations

import random as _random
from typing import Any, Callable, Optional

from repro.core.retry import RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.process import spawn

#: Backoff between re-dial attempts: 5 s, 10 s, 20 s, 40 s.
DEFAULT_SUPERVISOR_POLICY = RetryPolicy(
    max_attempts=4, base_delay=5.0, multiplier=2.0, max_delay=60.0, jitter=0.25
)


class ConnectionSupervisor:
    """Re-dials a connection whenever it goes down unexpectedly.

    ``restart`` is a factory returning a *generator* that brings the
    connection back up and returns a ``(code, lines)`` pair — in the
    testbed that is the umts back-end's ``start`` handler, so a healed
    connection re-applies routing and isolation exactly like a manual
    ``umts start`` would.
    """

    def __init__(
        self,
        sim: Simulator,
        connection: Any,
        restart: Callable[[], Any],
        policy: Optional[RetryPolicy] = None,
        rng: Optional[_random.Random] = None,
    ) -> None:
        self.sim = sim
        self.connection = connection
        self.restart = restart
        self.policy = policy or DEFAULT_SUPERVISOR_POLICY
        self.rng = rng
        self.heals = 0
        self.gave_up = 0
        self._healing = False
        self._stopped = False
        self._arm()

    def _arm(self) -> None:
        self.connection.went_down.wait(self._on_down)

    def stop(self) -> None:
        """Stand down (scenario teardown)."""
        self._stopped = True
        self.connection.went_down.unwait(self._on_down)

    def _on_down(self, reason: Any) -> None:
        if self._stopped:
            return
        self._arm()  # the signal's wait() is one-shot; stay subscribed
        if self._healing or str(reason) == "umts stop":
            return
        self._healing = True
        trace = self.sim.trace
        if trace is not None:
            trace.emit("umts.supervisor.down", reason=str(reason))
        spawn(self.sim, self._heal(str(reason)), name="umts-supervisor")

    def _heal(self, reason: str):
        """Generator: back off, then re-run ``umts start`` until it
        sticks or the attempt budget is spent."""
        trace = self.sim.trace
        try:
            for attempt in self.policy.attempts():
                yield self.policy.delay(attempt, self.rng)
                if trace is not None:
                    trace.emit("umts.supervisor.redial", attempt=attempt, reason=reason)
                outcome = yield from self.restart()
                code = outcome[0] if isinstance(outcome, tuple) else outcome.code
                if code == 0:
                    self.heals += 1
                    if trace is not None:
                        trace.emit("umts.supervisor.healed", attempt=attempt)
                    return
            self.gave_up += 1
            if trace is not None:
                trace.error("umts.supervisor.gave_up", reason=reason)
        finally:
            self._healing = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConnectionSupervisor heals={self.heals} gave_up={self.gave_up}>"
