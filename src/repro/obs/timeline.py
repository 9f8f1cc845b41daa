"""Span timelines: causal phase trees and critical-path analysis.

The paper's evaluation explains *where* UMTS datacall time goes —
registration, ATD dial, PPP LCP/IPCP negotiation, route installation.
The TraceBus records each of those phases as a span; this module
reconstructs the phase tree from a recorded event stream (a
:class:`~repro.obs.sinks.ListSink`, a flight-recorder dump, or parsed
JSONL) and answers the paper's question quantitatively:

- per-phase simulated durations (and how often each phase ran),
- the **critical path** — the chain of longest phases from the root
  span down, i.e. what to optimise to make bring-up faster,
- retry and fault attribution: every ``umts.retry`` and
  ``fault.injected`` event is charged to the innermost span open when
  it fired, so a chaos run shows exactly which phase absorbed the
  injected trouble.

Spans in the stack rarely carry explicit parent ids (phases are
sequential generator code, not nested ``with`` blocks), so nesting is
reconstructed **temporally**: a span that starts while another is open
is its child.  Explicit ``parent`` ids, when present, win.

Everything here is simulated-time only — wall-clock fields are
ignored — so timeline reports are deterministic per seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import KIND_ERROR, KIND_SPAN_END, KIND_SPAN_START
from repro.sim.monitor import ordered_sum

#: Point-event names attributed specially to their enclosing phase.
RETRY_EVENT = "umts.retry"
FAULT_EVENT = "fault.injected"


class PhaseNode:
    """One span instance in the reconstructed phase tree."""

    __slots__ = (
        "name", "span_id", "start", "end", "status", "fields",
        "parent", "children", "retries", "faults", "errors", "events",
    )

    def __init__(self, name: str, span_id: Optional[int], start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.fields: Dict[str, Any] = {}
        self.parent: Optional["PhaseNode"] = None
        self.children: List["PhaseNode"] = []
        self.retries = 0
        self.faults = 0
        self.errors = 0
        self.events = 0

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from start to end (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def self_time(self) -> Optional[float]:
        """Duration not covered by closed child spans."""
        if self.duration is None:
            return None
        child_total = ordered_sum(c.duration or 0.0 for c in self.children)
        return max(0.0, self.duration - child_total)

    def walk(self) -> Iterable["PhaseNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhaseNode {self.name} dur={self.duration}>"


def _normalize(event: Any) -> Dict[str, Any]:
    """One event as the JSONL-shaped dict the builder consumes."""
    if isinstance(event, dict):
        return event
    return event.to_dict()


class Timeline:
    """The reconstructed phase tree of one recorded run."""

    def __init__(self, roots: List[PhaseNode], events_seen: int) -> None:
        self.roots = roots
        self.events_seen = events_seen

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Any]) -> "Timeline":
        """Build the tree from TraceEvents or JSONL-parsed dicts."""
        roots: List[PhaseNode] = []
        open_by_id: Dict[int, PhaseNode] = {}
        open_stack: List[PhaseNode] = []
        count = 0
        for raw in events:
            record = _normalize(raw)
            count += 1
            kind = record.get("kind")
            time = float(record.get("t", 0.0))
            name = str(record.get("name", ""))
            span_id = record.get("span")
            if kind == KIND_SPAN_START:
                node = PhaseNode(name, span_id, time)
                parent_id = record.get("parent")
                parent = (
                    open_by_id.get(parent_id)
                    if parent_id is not None
                    else (open_stack[-1] if open_stack else None)
                )
                if parent is not None:
                    node.parent = parent
                    parent.children.append(node)
                else:
                    roots.append(node)
                if span_id is not None:
                    open_by_id[span_id] = node
                open_stack.append(node)
            elif kind == KIND_SPAN_END:
                node = open_by_id.pop(span_id, None) if span_id is not None else None
                if node is None:
                    continue  # end without a recorded start (truncated ring)
                node.end = time
                node.status = record.get("status")
                fields = record.get("fields")
                if fields:
                    node.fields.update(
                        {k: v for k, v in fields.items() if k != "wall"}
                    )
                if node in open_stack:
                    open_stack.remove(node)
            else:
                target: Optional[PhaseNode] = None
                if span_id is not None:
                    target = open_by_id.get(span_id)
                if target is None and open_stack:
                    target = open_stack[-1]
                if target is None:
                    continue
                target.events += 1
                if name == RETRY_EVENT:
                    target.retries += 1
                elif name == FAULT_EVENT:
                    target.faults += 1
                if kind == KIND_ERROR:
                    target.errors += 1
        return cls(roots, count)

    # -- queries -----------------------------------------------------------

    def all_phases(self) -> List[PhaseNode]:
        """Every node, depth-first across roots."""
        out: List[PhaseNode] = []
        for root in self.roots:
            out.extend(root.walk())
        return out

    def phase_totals(self) -> Dict[str, Tuple[int, float]]:
        """name → (instances, total closed duration), sorted by name."""
        totals: Dict[str, Tuple[int, float]] = {}
        for node in self.all_phases():
            count, total = totals.get(node.name, (0, 0.0))
            totals[node.name] = (count + 1, total + (node.duration or 0.0))
        return dict(sorted(totals.items()))

    def find(self, name: str) -> List[PhaseNode]:
        """Every instance of the phase ``name``."""
        return [node for node in self.all_phases() if node.name == name]

    def critical_path(self) -> List[PhaseNode]:
        """The chain of longest phases from the longest root down.

        At each level the child with the largest closed duration is
        followed (ties break toward the earlier span, which keeps the
        report deterministic).  This is the sequence of phases that
        bounds bring-up time — shorten anything on it and the whole
        timeline shrinks.
        """
        closed = [r for r in self.roots if r.duration is not None]
        if not closed:
            return []
        path: List[PhaseNode] = []
        node: Optional[PhaseNode] = max(closed, key=lambda n: (n.duration or 0.0))
        while node is not None:
            path.append(node)
            candidates = [c for c in node.children if c.duration is not None]
            if not candidates:
                break
            best = candidates[0]
            for child in candidates[1:]:
                if (child.duration or 0.0) > (best.duration or 0.0):
                    best = child
            node = best
        return path

    def attribution(self) -> Dict[str, Dict[str, int]]:
        """Per-phase retry/fault/error counts (phases with any, sorted)."""
        out: Dict[str, Dict[str, int]] = {}
        for node in self.all_phases():
            if not (node.retries or node.faults or node.errors):
                continue
            entry = out.setdefault(
                node.name, {"retries": 0, "faults": 0, "errors": 0}
            )
            entry["retries"] += node.retries
            entry["faults"] += node.faults
            entry["errors"] += node.errors
        return dict(sorted(out.items()))

    # -- reports -----------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """JSONL-ready phase records (deterministic order and content)."""
        out = []
        critical = self.critical_path()
        for node in self.all_phases():
            out.append({
                "record": "phase",
                "phase": node.name,
                "start": node.start,
                "duration": node.duration,
                "status": node.status,
                "depth": _depth(node),
                "retries": node.retries,
                "faults": node.faults,
                "errors": node.errors,
                "critical": any(node is c for c in critical),
            })
        return out

    def report_lines(self) -> List[str]:
        """The human-readable timeline: tree, critical path, attribution."""
        lines: List[str] = []
        critical = self.critical_path()
        for root in self.roots:
            for node in root.walk():
                indent = "  " * _depth(node)
                duration = (
                    f"{node.duration:9.3f}s" if node.duration is not None
                    else "   (open)"
                )
                marker = " *" if any(node is c for c in critical) else ""
                notes = []
                if node.retries:
                    notes.append(f"retries={node.retries}")
                if node.faults:
                    notes.append(f"faults={node.faults}")
                if node.status and node.status != "ok":
                    notes.append(f"status={node.status}")
                suffix = ("  " + " ".join(notes)) if notes else ""
                lines.append(f"{duration}  {indent}{node.name}{marker}{suffix}")
        path = self.critical_path()
        if path:
            chain = " > ".join(node.name for node in path)
            total = path[0].duration or 0.0
            lines.append(f"critical path: {chain} ({total:.3f}s)")
        attribution = self.attribution()
        if attribution:
            lines.append("attribution:")
            for name, entry in attribution.items():
                parts = " ".join(
                    f"{key}={value}" for key, value in entry.items() if value
                )
                lines.append(f"  {name}: {parts}")
        return lines


def _depth(node: PhaseNode) -> int:
    depth = 0
    current = node.parent
    while current is not None:
        depth += 1
        current = current.parent
    return depth
