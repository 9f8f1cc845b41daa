"""repro.obs — the observability layer of the UMTS stack.

Recording, threaded through every subsystem of the reproduction:

- :class:`TraceBus` — structured events and spans stamped with
  sim-time (plus wall-time deltas for profiling), fanned out to
  pluggable sinks;
- :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms (vsys RPC latency, engine queue depth, per-slice
  marked/dropped packet counts), exported as one ``snapshot()`` dict;
- :class:`FlightRecorder` — a bounded ring-buffer sink that freezes
  the last N events whenever an error event (a ``UmtsCommandError``,
  a failed dial phase) crosses the bus.

Analysis and export, on top of the recordings:

- :mod:`repro.obs.exporter` — deterministic OpenMetrics text
  exposition of any registry snapshot;
- :mod:`repro.obs.timeline` — phase trees and critical-path analysis
  reconstructed from recorded spans;
- :class:`SimProfiler` — per-subsystem/per-process simulated-time
  attribution, hung off ``sim.profile``.

All hooks are zero-cost when nothing is attached: components check
``sim.trace``/``sim.metrics`` (both ``None`` by default) and the bus
short-circuits without sinks, so instrumented and uninstrumented runs
are bit-for-bit identical.

Quick start::

    from repro import OneLabScenario
    from repro.obs import Observability

    scenario = OneLabScenario(seed=3)
    obs = Observability(scenario.sim)
    obs.bind_node(scenario.napoli)
    events = obs.record_events()
    scenario.umts_command().start_blocking()
    print(obs.metrics.summary_lines())
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.exporter import render_openmetrics
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    WALL_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsMergeError,
    MetricsRegistry,
)
from repro.obs.profile import SimProfiler
from repro.obs.sinks import DEFAULT_FLIGHT_CAPACITY, FlightRecorder, JsonlSink, ListSink
from repro.obs.timeline import Timeline
from repro.obs.trace import (
    KIND_ERROR,
    KIND_EVENT,
    KIND_SPAN_END,
    KIND_SPAN_START,
    KIND_TRANSITION,
    NULL_SPAN,
    NullSpan,
    Span,
    TraceBus,
    TraceEvent,
    format_event,
)


class Observability:
    """One-stop wiring: bus + registry + flight recorder onto a simulator.

    Construction installs ``sim.trace`` and ``sim.metrics`` and attaches
    a :class:`FlightRecorder`, which turns every instrumentation hook in
    the stack live.  Netfilter state is not reachable through the
    simulator, so nodes are bound explicitly with :meth:`bind_node`.
    """

    def __init__(self, sim):
        self.sim = sim
        self.trace = TraceBus(sim)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder()
        self.trace.attach(self.flight)
        self.profiler: Optional[SimProfiler] = None
        self._bound: List = []
        sim.trace = self.trace
        sim.metrics = self.metrics

    def enable_profiling(self) -> SimProfiler:
        """Attach the :class:`SimProfiler`, creating it on first use.

        Also re-attaches it after :meth:`detach`.
        """
        if self.profiler is None:
            self.profiler = SimProfiler()
        self.sim.profile = self.profiler
        return self.profiler

    def bind_node(self, node) -> None:
        """Point a node's netfilter mark/drop counters at the registry."""
        node.stack.netfilter.metrics = self.metrics
        self._bound.append(node.stack.netfilter)

    def record_events(self) -> ListSink:
        """Attach and return an in-memory :class:`ListSink`."""
        return self.trace.attach(ListSink())

    def export_jsonl(self, target) -> JsonlSink:
        """Attach and return a :class:`JsonlSink` writing to ``target``."""
        return self.trace.attach(JsonlSink(target))

    def timeline(self, sink: ListSink) -> Timeline:
        """The phase tree reconstructed from a recorded sink."""
        return Timeline.from_events(sink.events)

    def openmetrics(self, include_volatile: bool = False) -> str:
        """The registry as OpenMetrics text exposition."""
        return render_openmetrics(self.metrics, include_volatile=include_volatile)

    def detach(self) -> None:
        """Unhook the simulator and every bound node (instrumentation goes cold)."""
        self.sim.trace = None
        self.sim.metrics = None
        self.sim.profile = None
        for netfilter in self._bound:
            if netfilter.metrics is self.metrics:
                netfilter.metrics = None


__all__ = [
    "Counter",
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KIND_ERROR",
    "KIND_EVENT",
    "KIND_SPAN_END",
    "KIND_SPAN_START",
    "KIND_TRANSITION",
    "LATENCY_BUCKETS",
    "ListSink",
    "MetricsMergeError",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Observability",
    "SimProfiler",
    "Span",
    "Timeline",
    "TraceBus",
    "TraceEvent",
    "WALL_BUCKETS",
    "format_event",
    "render_openmetrics",
]
