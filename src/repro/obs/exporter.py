"""OpenMetrics text exposition for :class:`MetricsRegistry` snapshots.

Renders any registry — a live one, or the key-ordered fold of worker
snapshots a :func:`repro.parallel.runner.run_campaign` produces — to
the Prometheus/OpenMetrics text format.  Two properties matter here:

- **Deterministic bytes.**  Families are emitted in sorted-name order
  and every number is formatted with shortest-round-trip ``repr``, so
  the exposition of a deterministic campaign is byte-identical at any
  ``-j`` and across double runs (the CI gate ``cmp``\\ s the two files).
- **Volatile metrics are opt-in.**  Names carrying wall-clock content
  (``…wall…``) are host-dependent by construction; they are dropped
  from the default exposition so the byte-identity contract holds, and
  re-included with ``include_volatile=True`` for live dashboards.

Metric names in the registry use dotted lowercase
(``umts.cmd.start``); OpenMetrics names must match
``[a-zA-Z_:][a-zA-Z0-9_:]*``, so dots become underscores and every
family gains the ``repro_`` namespace prefix.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Union

from repro.obs.metrics import MetricsRegistry

#: Registry metric names matching this are wall-clock-dependent and
#: excluded from the deterministic exposition by default.
VOLATILE_NAME_RE = re.compile(r"(^|[._])wall([._]|$)|wall_seconds")

_BAD_CHARS_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Every exposition starts with this namespace.
NAMESPACE = "repro"

Snapshot = Dict[str, Dict[str, object]]


def is_volatile(name: str) -> bool:
    """Whether a registry metric name carries wall-clock content."""
    return VOLATILE_NAME_RE.search(name) is not None


def openmetrics_name(name: str) -> str:
    """A registry name as an OpenMetrics family name (namespaced)."""
    flat = _BAD_CHARS_RE.sub("_", name.replace(".", "_"))
    if not flat or not (flat[0].isalpha() or flat[0] in "_:"):
        flat = "_" + flat
    return f"{NAMESPACE}_{flat}"


def format_value(value: object) -> str:
    """One number, shortest-round-trip, OpenMetrics vocabulary."""
    if isinstance(value, bool):  # bools are ints; keep them numeric
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)  # type: ignore[arg-type]
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _counter_lines(name: str, entry: Dict[str, object]) -> List[str]:
    family = openmetrics_name(name)
    return [
        f"# TYPE {family} counter",
        f"{family}_total {format_value(entry['value'])}",
    ]


def _gauge_lines(name: str, entry: Dict[str, object]) -> List[str]:
    family = openmetrics_name(name)
    lines = [
        f"# TYPE {family} gauge",
        f"{family} {format_value(entry['value'])}",
    ]
    if entry.get("max") is not None:
        lines.append(f"{family}_max {format_value(entry['max'])}")
    if entry.get("min") is not None:
        lines.append(f"{family}_min {format_value(entry['min'])}")
    return lines


def _histogram_lines(name: str, entry: Dict[str, object]) -> List[str]:
    family = openmetrics_name(name)
    lines = [f"# TYPE {family} histogram"]
    cumulative = 0
    edges = entry["edges"]
    counts = entry["counts"]
    for edge, count in zip(edges, counts):  # type: ignore[arg-type]
        cumulative += int(count)  # type: ignore[arg-type]
        lines.append(
            f'{family}_bucket{{le="{format_value(edge)}"}} {cumulative}'
        )
    cumulative += int(entry["overflow"])  # type: ignore[arg-type]
    lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{family}_count {format_value(entry['count'])}")
    lines.append(f"{family}_sum {format_value(entry['sum'])}")
    return lines


_RENDERERS = {
    "counter": _counter_lines,
    "gauge": _gauge_lines,
    "histogram": _histogram_lines,
}


def render_openmetrics(
    source: Union[MetricsRegistry, Snapshot],
    include_volatile: bool = False,
) -> str:
    """The full text exposition (terminated by ``# EOF``).

    ``source`` is a registry or a :meth:`MetricsRegistry.snapshot`
    dict — the latter is what campaign workers ship back to the
    runner, so exports can happen far from any live simulator.
    """
    snapshot: Snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    lines: List[str] = []
    for name in sorted(snapshot):
        if not include_volatile and is_volatile(name):
            continue
        entry = snapshot[name]
        kind = str(entry["type"])
        renderer = _RENDERERS.get(kind)
        if renderer is None:
            raise ValueError(f"metric {name!r} has unknown type {kind!r}")
        lines.extend(renderer(name, entry))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
