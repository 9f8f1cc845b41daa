"""Running the paper's experiment across one fleet group.

For every node-pair and every slice, a driver process requests the
sender node's UMTS lease from the controller, brings the connection up
through the slice's own ``umts`` vsys front-end (start + add), runs the
paper's VoIP/CBR flow from the sender sliver to the receiver node's
sliver over ``ppp0``, and tears everything down — racing, the whole
time, the controller's ``revoked`` signal: a preemption or node kill
mid-datacall stops the traffic and still walks the *graceful* teardown
path (``umts stop`` → release), so netfilter/RPDB isolation is removed
by the same code as a voluntary stop.

Lost-wakeup safety: revocations and flow completion are funnelled into
a per-attempt :class:`~repro.sim.process.Store` (which buffers) rather
than raced on bare signals, so a revoke that lands while the driver is
blocked inside ``umts start`` is never dropped.

The group report is pure data with a SHA-256 digest over its canonical
JSON — the unit the :mod:`repro.parallel` campaign runner shards and
merges byte-identically at any ``-j``.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Any, Dict, Generator, List, Optional

from repro.core.frontend import UmtsCommand
from repro.core.retry import RetryPolicy
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.instantiate import GrammarEvents
from repro.sim.process import Store, spawn
from repro.testbed.planetlab import PlanetLabNode
from repro.traffic.decoder import ItgDecoder
from repro.traffic.flows import FlowSpec, cbr, voip_g711
from repro.traffic.receiver import ItgReceiver
from repro.traffic.sender import ItgSender

from repro.fleet.controller import FleetController
from repro.fleet.spec import FleetSpec, SliceSpec
from repro.fleet.testbed import FleetGroup

#: Base destination port; each (slice, attempt) on a receiver node gets
#: its own port so concurrent flows never collide on one stack.
BASE_DPORT = 9000


def _flow_spec(spec: FleetSpec, dport: int) -> FlowSpec:
    """The paper's workload with an explicit per-attempt port."""
    if spec.kind == "cbr":
        return cbr(duration=spec.duration, dport=dport)
    return voip_g711(duration=spec.duration, dport=dport)


def node_clean(node: PlanetLabNode) -> bool:
    """The PR-4 invariant, per node: all live, or all released."""
    if node.umts_backend is None or node.connection is None:
        return True
    if node.connection.is_up:
        return node.umts_backend.lock.locked
    return node.released()


class GroupRun:
    """One group's full campaign: build, schedule, run, report."""

    def __init__(
        self,
        spec: FleetSpec,
        group_index: int,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        self.group_index = group_index
        self.group = FleetGroup(spec, group_index)
        sim = self.group.sim
        if metrics is not None:
            sim.metrics = metrics
        self.controller = FleetController(
            sim,
            preemption=spec.preemption,
            starvation_threshold=spec.starvation_threshold,
        )
        for node in self.group.nodes:
            self.controller.register_node(node.name, on_kill=self._make_on_kill(node))
        if spec.faults:
            plan = FaultPlan.from_spec(*spec.faults)
            registry = plan.install(sim, rng=self.group.streams.stream("faults"))
            self.controller.bind_faults(registry)
        self.records: List[Dict[str, Any]] = []
        self._schedule_scenarios()

    def _schedule_scenarios(self) -> None:
        """Arm each node's grammar point: ladder moves and handovers.

        Events fire at absolute sim times; one that lands while the
        node has no data call up is simply a no-op (the lease may be
        held by a later wave at that moment), keeping the schedule a
        pure function of the spec.
        """
        for node in self.group.nodes:
            scenario = self.group.node_scenarios.get(node.name)
            if scenario is not None:
                GrammarEvents(
                    self.group.sim,
                    scenario,
                    node.modem,
                    self.group.node_handover_cells.get(node.name, ()),
                    partial(self._live_rab, node),
                )

    def _live_rab(self, node: PlanetLabNode) -> Any:
        call = self.group.call_for(node)
        return None if call is None else call.rab

    def _make_on_kill(self, node: PlanetLabNode) -> Any:
        def on_kill(reason: str) -> None:
            call = self.group.call_for(node)
            if call is not None:
                self.group.operator.drop_call(call, reason)

        return on_kill

    # -- execution ---------------------------------------------------------

    def execute(self) -> None:
        """Spawn every experiment and run the group to quiescence."""
        sim = self.group.sim
        for pair_index, (sender, receiver) in enumerate(self.group.pairs()):
            for slice_index, slice_spec in enumerate(self.spec.slices):
                sender_scenario = self.group.node_scenarios.get(sender.name)
                record = {
                    "experiment": (
                        f"g{self.group_index:04d}.p{pair_index:02d}."
                        f"{slice_spec.name}"
                    ),
                    "node": sender.name,
                    "peer": receiver.name,
                    "slice": slice_spec.name,
                    "priority": slice_spec.priority,
                    "scenario": "" if sender_scenario is None else sender_scenario.name,
                    "attempts": 0,
                    "outcome": "pending",
                    "done": False,
                    "summary": None,
                }
                self.records.append(record)
                spawn(
                    sim,
                    self._experiment(
                        record, pair_index, slice_index, sender, receiver, slice_spec
                    ),
                    name=f"fleet:{record['experiment']}",
                )
        deadline = self.spec.effective_deadline()
        while sim.now < deadline and not all(r["done"] for r in self.records):
            sim.run(until=min(sim.now + 10.0, deadline))
        for record in self.records:
            if not record["done"]:
                record["outcome"] = "timeout"
        sim.run(until=sim.now + self.spec.drain)

    def _experiment(
        self,
        record: Dict[str, Any],
        pair_index: int,
        slice_index: int,
        sender_node: PlanetLabNode,
        receiver_node: PlanetLabNode,
        slice_spec: SliceSpec,
    ) -> Generator[Any, Any, None]:
        spec = self.spec
        sim = self.group.sim
        # Low-priority slices lease first; each later slice arrives
        # ``stagger`` seconds deeper into the previous one's data call
        # (the deterministic preemption window).  The small per-pair
        # skew spreads dial-up bursts without reordering anything.
        yield slice_index * spec.stagger + pair_index * 0.5
        outcome = "pending"
        policy = RetryPolicy(max_attempts=spec.retry_preempted + 1, base_delay=0.0)
        for attempt in policy.attempts():
            record["attempts"] = attempt + 1
            outcome = yield from self._attempt(
                record, pair_index, slice_index, attempt,
                sender_node, receiver_node, slice_spec,
            )
            if outcome != "preempted":
                break
        record["outcome"] = outcome
        record["done"] = True
        metrics = sim.metrics
        if metrics is not None:
            if outcome == "completed":
                metrics.counter("fleet.experiment.completed").inc()
            elif outcome == "preempted":
                metrics.counter("fleet.experiment.preempted").inc()
            else:
                metrics.counter("fleet.experiment.failed").inc()

    def _attempt(
        self,
        record: Dict[str, Any],
        pair_index: int,
        slice_index: int,
        attempt: int,
        sender_node: PlanetLabNode,
        receiver_node: PlanetLabNode,
        slice_spec: SliceSpec,
    ) -> Generator[Any, Any, str]:
        spec = self.spec
        sim = self.group.sim
        ticket = self.controller.request(
            sender_node.name, slice_spec.name, slice_spec.priority
        )
        status, detail = yield ticket.outcome
        if status == "failed":
            return "unleased"
        # From grant to release every revocation lands in this store —
        # a Store buffers, so a revoke during ``umts start`` is caught
        # at the next get instead of being lost.
        events: Store = Store(sim, name=f"lease-events:{record['experiment']}")
        ticket.revoked.wait(lambda reason: events.put(("revoked", reason)))
        umts = UmtsCommand(sender_node.slivers[slice_spec.name])
        started = yield umts.start()
        if not started.ok:
            umts.close()
            self.controller.release(ticket)
            return "failed"
        if len(events):
            # Revoked while dialing: tear down before any traffic.
            return (yield from self._teardown(ticket, umts, events.get_nowait()[1]))
        added = yield umts.add_destination(receiver_node.address)
        # Destinations persist on the node across sessions, so a later
        # slice's add may find its peer "already added" — that is fine.
        add_ok = added.ok or "already added" in added.text
        if not add_ok or len(events):
            reason = events.get_nowait()[1] if len(events) else "add failed"
            return (yield from self._teardown(ticket, umts, reason))
        dport = BASE_DPORT + slice_index * 8 + attempt
        flow = _flow_spec(spec, dport)
        flow_id = 1 + (pair_index * 8 + slice_index) * 8 + attempt
        receiver = ItgReceiver(
            sim, receiver_node.slivers[slice_spec.name].socket(), port=dport
        )
        sender = ItgSender(
            sim,
            sender_node.slivers[slice_spec.name].socket(),
            receiver_node.address,
            flow,
            self.group.streams.stream(
                f"itg.p{pair_index}.s{slice_index}.a{attempt}"
            ),
            flow_id=flow_id,
        )
        sender.start().done.wait(lambda value: events.put(("finished", value)))
        kind, value = yield events.get()
        if kind == "revoked":
            sender.stop()
            return (yield from self._teardown(ticket, umts, str(value)))
        yield spec.drain  # let in-flight probes and echoes land
        summary = ItgDecoder(sender.log, receiver.log_for(flow_id)).summary()
        record["summary"] = {
            "packets_sent": summary.packets_sent,
            "packets_received": summary.packets_received,
            "loss_fraction": round(summary.loss_fraction, 9),
            "bitrate_kbps": round(summary.mean_bitrate_kbps, 6),
            "mean_rtt_s": round(summary.mean_rtt, 9),
        }
        yield from self._teardown(ticket, umts, None)
        return "completed"

    def _teardown(
        self, ticket: Any, umts: UmtsCommand, revoke_reason: Optional[str]
    ) -> Generator[Any, Any, str]:
        """Graceful holder-owned teardown, revoked or not.

        ``umts stop`` may legitimately fail here — a killed node's lock
        was already force-released by the ``went_down`` cleanup — and
        the lease is released either way.
        """
        try:
            yield umts.stop()
        finally:
            # Even a fault thrown into the stop must free the lease:
            # a leaked ticket starves every later waiter on the node.
            umts.close()
            self.controller.release(ticket)
        if revoke_reason is None:
            return "completed"
        if revoke_reason.startswith("preempted"):
            return "preempted"
        return "killed"

    # -- reporting ---------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """The group's stable record: experiments, fairness, digest."""
        experiments = sorted(
            (
                {key: value for key, value in record.items() if key != "done"}
                for record in self.records
            ),
            key=lambda r: r["experiment"],
        )
        fairness = self.controller.fairness()
        metrics = self.group.sim.metrics
        if metrics is not None:
            metrics.gauge("fleet.fairness.jain").set(fairness["jain_hold_s"])
        body = {
            "group": self.group_index,
            "nodes": len(self.group.nodes),
            "experiments": experiments,
            "fairness": fairness,
            "dead_nodes": sorted(self.controller.dead_nodes()),
            "clean": all(node_clean(node) for node in self.group.nodes),
            "finished": all(record["done"] for record in self.records),
            "sim_time": round(self.group.sim.now, 6),
        }
        body["digest"] = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        return body


def run_group(
    spec: FleetSpec, group_index: int, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Build, run, and report one fleet group (the job entry point)."""
    run = GroupRun(spec, group_index, metrics=metrics)
    run.execute()
    return run.report()
