"""The campaign job model: spawn-safe descriptors, pure entry points.

A :class:`Job` is everything a worker needs to produce one result —
a ``kind`` naming a registered entry point, a campaign-unique ``key``
(the merge sort key), and a JSON-able ``payload`` holding every input
the simulation depends on (scenario config, seed, duration, ...).
Jobs carry *data only*: they pickle cheaply and survive ``spawn``
start methods.

Entry points are module-level functions registered under their kind
with :func:`entry_point`; they receive the payload and return a
:class:`JobOutput` whose ``stable`` part is a pure function of the
payload (the determinism contract the campaign digest hashes).  Worker
processes re-resolve the function from the registry by name, so
nothing un-picklable ever crosses the process boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple


class JobOutput(NamedTuple):
    """What an entry point returns.

    ``stable`` must be a pure function of the job payload — it is what
    the campaign digest hashes and what ``-j 1`` vs ``-j N`` equality
    is proved over.  ``metrics`` is a :meth:`MetricsRegistry.snapshot`
    from the worker, merged into one campaign-wide registry by the
    runner.
    """

    stable: Dict[str, Any]
    metrics: Dict[str, Dict[str, Any]] = {}


@dataclass(frozen=True)
class Job:
    """One independent unit of campaign work (spawn-safe, picklable)."""

    kind: str
    key: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobResult:
    """One executed job, ready to merge."""

    key: str
    kind: str
    stable: Dict[str, Any]
    metrics: Dict[str, Dict[str, Any]]

    def stable_digest_line(self) -> str:
        """The canonical record the campaign digest hashes for this job."""
        return json.dumps(
            {"key": self.key, "kind": self.kind, "stable": self.stable},
            sort_keys=True,
            separators=(",", ":"),
        )


EntryPoint = Callable[[Dict[str, Any]], JobOutput]

#: kind → entry point; populated at import of repro.parallel.entrypoints.
ENTRY_POINTS: Dict[str, EntryPoint] = {}


def entry_point(kind: str) -> Callable[[EntryPoint], EntryPoint]:
    """Register a job entry point under ``kind`` (import-time only)."""

    def installer(fn: EntryPoint) -> EntryPoint:
        if kind in ENTRY_POINTS:
            raise ValueError(f"duplicate entry point {kind!r}")
        # lint: allow(worker-safety) -- import-time registration, identical in every process
        ENTRY_POINTS[kind] = fn
        return fn

    return installer


def resolve_entry_point(kind: str) -> EntryPoint:
    """Look up ``kind``, importing the built-in entry points on demand."""
    if kind not in ENTRY_POINTS:
        # Workers (especially under spawn) resolve lazily: importing
        # here keeps Job pickles free of function references.
        from repro.parallel import entrypoints  # noqa: F401  (registration)
    try:
        return ENTRY_POINTS[kind]
    except KeyError:
        raise KeyError(
            f"unknown job kind {kind!r} (registered: {', '.join(sorted(ENTRY_POINTS))})"
        ) from None


def validate_jobs(jobs: List[Job]) -> None:
    """Reject duplicate keys — the merge order must be unambiguous."""
    seen: Dict[str, Job] = {}
    for job in jobs:
        if job.key in seen:
            raise ValueError(f"duplicate job key {job.key!r}")
        seen[job.key] = job
