"""The fleet's management plane: per-node UMTS interface leases.

The paper's exclusivity rule — one slice owns the UMTS interface at a
time, enforced on the node by the ``umts`` back-end's
:class:`~repro.core.lock.InterfaceLock` — becomes, fleet-wide, an
arbitration problem.  The :class:`FleetController` runs it as a lease
protocol *above* the node-local lock:

- a slice **requests** the interface of a node and gets a
  :class:`LeaseTicket`; the request resolves through the ticket's
  ``outcome`` signal as ``("granted", ticket)`` or
  ``("failed", reason)``;
- per node there is a FIFO queue, ordered by priority first and
  arrival order within a priority, so equal-priority slices can never
  overtake each other;
- with preemption enabled, a request of strictly higher priority than
  the current holder fires the holder's ``revoked`` signal.  Revocation
  is **graceful**: the holder owns its own teardown (stop traffic,
  ``umts stop``, then :meth:`FleetController.release`) so the vsys
  back-end never sees two slices racing the interface — the node-local
  lock stays the ground truth and the netfilter/RPDB isolation is
  removed by the same path as a voluntary stop;
- a node **dying** while leased (the ``fleet:node_kill`` chaos mode)
  force-drops its data call — the connection manager's ``went_down``
  cleanup then force-releases the node lock and removes the isolation
  rules, exactly the PR-4 invariant — revokes the holder, and fails
  every queued ticket immediately, so death never starves the queue.

Fairness is accounted per slice (requests, grants, preemptions
suffered, failures, wait/hold time) and summarized with Jain's fairness
index over both grant counts and total hold time.  All metrics live on
the run's :class:`~repro.obs.metrics.MetricsRegistry` via the standard
``sim.metrics`` zero-cost-when-``None`` contract, and every lease
transition is a TraceBus event (grants open a ``fleet.lease`` span) so
arbitration shows up in ``repro report`` timelines.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import LATENCY_BUCKETS
from repro.sim.engine import Simulator
from repro.sim.monitor import ordered_sum
from repro.sim.process import Signal


class FleetLeaseError(Exception):
    """Lease protocol misuse (unknown node, double release)."""


class LeaseTicket:
    """One slice's claim on one node's UMTS interface."""

    def __init__(
        self, sim: Simulator, node: str, slice_name: str, priority: int, seq: int
    ):
        self.node = node
        self.slice_name = slice_name
        self.priority = priority
        self.seq = seq
        self.requested_at = sim.now
        self.granted_at: Optional[float] = None
        self.released_at: Optional[float] = None
        self.state = "queued"  # queued | granted | released | failed
        self.revoke_reason: Optional[str] = None
        #: fires ("granted", ticket) or ("failed", reason) exactly once.
        self.outcome = Signal(sim, f"lease.outcome.{node}.{slice_name}")
        #: fires (reason) if the controller wants the interface back.
        self.revoked = Signal(sim, f"lease.revoked.{node}.{slice_name}")
        self._span: Any = None

    @property
    def granted(self) -> bool:
        return self.state == "granted"

    def wait_time(self) -> Optional[float]:
        """Seconds spent queued, or ``None`` while not yet granted."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.requested_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LeaseTicket {self.slice_name}@{self.node} prio={self.priority} "
            f"{self.state}>"
        )


class _NodeState:
    """Controller-side state of one node's interface."""

    __slots__ = ("name", "holder", "queue", "dead", "on_kill")

    def __init__(self, name: str, on_kill: Optional[Callable[[str], None]]):
        self.name = name
        self.holder: Optional[LeaseTicket] = None
        self.queue: List[LeaseTicket] = []
        self.dead = False
        self.on_kill = on_kill


class _SliceStats:
    """Per-slice fairness ledger."""

    __slots__ = ("requests", "grants", "preemptions", "failed", "wait_s", "hold_s")

    def __init__(self) -> None:
        self.requests = 0
        self.grants = 0
        self.preemptions = 0
        self.failed = 0
        self.wait_s = 0.0
        self.hold_s = 0.0


def jain_index(values: List[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is worst."""
    if not values:
        return 1.0
    total = ordered_sum(values)
    squares = ordered_sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


class FleetController:
    """Central lease arbiter for every node in one fleet group."""

    def __init__(
        self,
        sim: Simulator,
        preemption: bool = True,
        starvation_threshold: float = 120.0,
    ):
        self.sim = sim
        self.preemption = preemption
        self.starvation_threshold = starvation_threshold
        self._nodes: Dict[str, _NodeState] = {}
        self._order: List[str] = []
        self._seq = itertools.count()
        self._stats: Dict[str, _SliceStats] = {}
        self.killed: List[str] = []
        # Touch every fleet metric family up front so zero-valued
        # counters (starved, preemptions, ...) still appear in the
        # OpenMetrics export of an uneventful campaign.
        metrics = sim.metrics
        if metrics is not None:
            metrics.counter("fleet.lease.requests")
            metrics.counter("fleet.lease.grants")
            metrics.counter("fleet.lease.releases")
            metrics.counter("fleet.lease.preemptions")
            metrics.counter("fleet.lease.failed")
            metrics.counter("fleet.lease.starved")
            metrics.counter("fleet.node.killed")
            metrics.histogram("fleet.lease.wait_seconds", LATENCY_BUCKETS)
            metrics.histogram("fleet.lease.hold_seconds", LATENCY_BUCKETS)
            metrics.gauge("fleet.lease.queue_depth")

    # -- registration ------------------------------------------------------

    def register_node(
        self, name: str, on_kill: Optional[Callable[[str], None]] = None
    ) -> None:
        """Put one node's interface under controller management.

        ``on_kill(reason)`` models the node dying: it should drop the
        node's active data call so the stack's own ``went_down`` path
        cleans up the lock and isolation rules.
        """
        if name in self._nodes:
            raise FleetLeaseError(f"node {name!r} already registered")
        self._nodes[name] = _NodeState(name, on_kill)
        self._order.append(name)

    def bind_faults(self, registry: Any) -> None:
        """Subscribe the ``fleet`` injection point of a fault registry."""
        registry.subscribe("fleet", self._fleet_fault)

    # -- the lease protocol ------------------------------------------------

    def request(self, node: str, slice_name: str, priority: int = 0) -> LeaseTicket:
        """Queue a lease request; resolve via ``ticket.outcome``.

        Resolution is always asynchronous (a zero-delay event), so the
        caller can yield on the outcome signal after this returns
        without racing the decision.
        """
        state = self._nodes.get(node)
        if state is None:
            raise FleetLeaseError(f"unknown node {node!r}")
        ticket = LeaseTicket(self.sim, node, slice_name, priority, next(self._seq))
        stats = self._stats.setdefault(slice_name, _SliceStats())
        stats.requests += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("fleet.lease.requests").inc()
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                "fleet.lease.request",
                node=node,
                slice=slice_name,
                priority=priority,
            )
        if state.dead:
            self.sim.post(0.0, self._fail, ticket, "node dead")
            return ticket
        state.queue.append(ticket)
        self._update_depth(state)
        holder = state.holder
        if (
            self.preemption
            and holder is not None
            and priority > holder.priority
            and holder.revoke_reason is None
        ):
            self._revoke(holder, f"preempted by {slice_name}", preemption=True)
        self.sim.post(0.0, self._pump, state)
        return ticket

    def release(self, ticket: LeaseTicket) -> None:
        """Give a granted interface back (also after a revocation)."""
        state = self._nodes.get(ticket.node)
        if state is None or ticket.state != "granted":
            return
        ticket.state = "released"
        ticket.released_at = self.sim.now
        granted_at = (
            ticket.granted_at if ticket.granted_at is not None else ticket.released_at
        )
        hold = ticket.released_at - granted_at
        self._stats.setdefault(ticket.slice_name, _SliceStats()).hold_s += hold
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("fleet.lease.releases").inc()
            metrics.histogram("fleet.lease.hold_seconds", LATENCY_BUCKETS).observe(hold)
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                "fleet.lease.release",
                node=ticket.node,
                slice=ticket.slice_name,
                hold_s=round(hold, 6),
            )
        if ticket._span is not None:
            status = "revoked" if ticket.revoke_reason else "ok"
            ticket._span.end(status=status)
            ticket._span = None
        if state.holder is ticket:
            state.holder = None
        self.sim.post(0.0, self._pump, state)

    def kill_node(self, name: str, reason: str = "node killed") -> None:
        """A node dies: drop its call, revoke the holder, drain the queue.

        Queued tickets resolve as failed *immediately* — a dead node
        must never starve its waiters — and later requests fail at
        request time.
        """
        state = self._nodes.get(name)
        if state is None:
            raise FleetLeaseError(f"unknown node {name!r}")
        if state.dead:
            return
        state.dead = True
        self.killed.append(name)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("fleet.node.killed").inc()
        trace = self.sim.trace
        if trace is not None:
            trace.emit("fleet.node.kill", node=name, reason=reason)
        if state.on_kill is not None:
            state.on_kill(reason)
        holder = state.holder
        if holder is not None and holder.revoke_reason is None:
            self._revoke(holder, reason, preemption=False)
        queued, state.queue = state.queue, []
        for ticket in queued:
            self._fail(ticket, reason)
        self._update_depth(state)

    # -- accounting --------------------------------------------------------

    def fairness(self) -> Dict[str, Any]:
        """The per-slice ledger plus Jain indices, JSON-ready."""
        slices: Dict[str, Any] = {}
        for name in sorted(self._stats):
            stats = self._stats[name]
            mean_wait = stats.wait_s / stats.grants if stats.grants else 0.0
            slices[name] = {
                "requests": stats.requests,
                "grants": stats.grants,
                "preemptions": stats.preemptions,
                "failed": stats.failed,
                "mean_wait_s": round(mean_wait, 6),
                "hold_s": round(stats.hold_s, 6),
            }
        ordered = [self._stats[name] for name in sorted(self._stats)]
        return {
            "slices": slices,
            "jain_grants": round(jain_index([float(s.grants) for s in ordered]), 6),
            "jain_hold_s": round(jain_index([s.hold_s for s in ordered]), 6),
        }

    def dead_nodes(self) -> List[str]:
        """Names of every node killed so far, in kill order."""
        return list(self.killed)

    # -- internals ---------------------------------------------------------

    def _pump(self, state: _NodeState) -> None:
        """Grant the best queued ticket if the interface is free."""
        if state.holder is not None or state.dead or not state.queue:
            return
        best = min(state.queue, key=lambda t: (-t.priority, t.seq))
        state.queue.remove(best)
        state.holder = best
        best.state = "granted"
        best.granted_at = self.sim.now
        wait = best.granted_at - best.requested_at
        stats = self._stats.setdefault(best.slice_name, _SliceStats())
        stats.grants += 1
        stats.wait_s += wait
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("fleet.lease.grants").inc()
            metrics.histogram("fleet.lease.wait_seconds", LATENCY_BUCKETS).observe(wait)
            if wait > self.starvation_threshold:
                metrics.counter("fleet.lease.starved").inc()
        self._update_depth(state)
        trace = self.sim.trace
        if trace is not None:
            best._span = trace.span(
                "fleet.lease",
                node=best.node,
                slice=best.slice_name,
                priority=best.priority,
                wait_s=round(wait, 6),
            )
        best.outcome.fire(("granted", best))

    def _revoke(self, ticket: LeaseTicket, reason: str, preemption: bool) -> None:
        ticket.revoke_reason = reason
        if preemption:
            self._stats.setdefault(ticket.slice_name, _SliceStats()).preemptions += 1
        metrics = self.sim.metrics
        if metrics is not None and preemption:
            metrics.counter("fleet.lease.preemptions").inc()
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                "fleet.lease.preempt" if preemption else "fleet.lease.revoke",
                node=ticket.node,
                slice=ticket.slice_name,
                reason=reason,
            )
        self.sim.post(0.0, ticket.revoked.fire, reason)

    def _fail(self, ticket: LeaseTicket, reason: str) -> None:
        if ticket.state not in ("queued",):
            return
        ticket.state = "failed"
        self._stats.setdefault(ticket.slice_name, _SliceStats()).failed += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("fleet.lease.failed").inc()
        ticket.outcome.fire(("failed", reason))

    def _update_depth(self, state: _NodeState) -> None:
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.gauge("fleet.lease.queue_depth").set(float(len(state.queue)))

    def _fleet_fault(self, spec: Any) -> bool:
        """Apply a triggered ``fleet`` fault (the chaos grammar hook)."""
        if spec.mode != "node_kill" or not self._order:
            return False
        index = int(spec.params.get("node", "0")) % len(self._order)
        self.kill_node(self._order[index], reason="chaos node_kill")
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        held = sum(1 for s in self._nodes.values() if s.holder is not None)
        return (
            f"<FleetController nodes={len(self._nodes)} held={held} "
            f"dead={len(self.killed)}>"
        )
