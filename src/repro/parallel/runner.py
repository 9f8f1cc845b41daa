"""The sharded campaign runner: process pool, deterministic merge.

``run_campaign`` executes independent jobs across ``workers``
processes and merges results **sorted by job key**, so the campaign
digest — SHA-256 over each result's canonical ``stable`` record in key
order — is bit-identical for any ``-j``: scheduling order, worker
count, and fork vs spawn all cancel out of the digest.
``-j 1`` runs in-process with zero pool machinery, which makes it both
the fast path for tiny campaigns and the reference the parallel runs
are proved against.

Per-worker observability merges the same way: every job returns a
:meth:`MetricsRegistry.snapshot`, and the runner folds them into one
registry via :meth:`MetricsRegistry.merge` in key order, so counter
totals (and gauge extremes) aggregate without double counting and
without scheduling-order dependence.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.parallel.jobs import Job, JobResult, resolve_entry_point, validate_jobs


def execute_job(job: Job) -> JobResult:
    """Run one job to completion in this process (the worker body)."""
    output = resolve_entry_point(job.kind)(dict(job.payload))
    return JobResult(
        key=job.key, kind=job.kind, stable=output.stable, metrics=output.metrics
    )


def campaign_digest(results: Sequence[JobResult]) -> str:
    """SHA-256 over the key-sorted canonical stable records."""
    hasher = hashlib.sha256()
    for result in sorted(results, key=lambda r: r.key):
        hasher.update(result.stable_digest_line().encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap workers), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class CampaignResult:
    """Every job's result plus the campaign-level aggregates."""

    results: List[JobResult]
    digest: str
    workers: int
    wall_s: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def by_key(self) -> Dict[str, JobResult]:
        """key → result, for report reassembly in submission order."""
        return {result.key: result for result in self.results}


def run_campaign(
    jobs: Sequence[Job],
    workers: int = 1,
    start_method: Optional[str] = None,
) -> CampaignResult:
    """Execute ``jobs`` with ``workers`` processes and merge by key.

    ``workers=1`` runs in-process (no pool); ``workers=0`` means one
    per CPU.  The returned results are key-sorted, the digest is
    order- and ``workers``-independent, and ``metrics`` holds the
    key-ordered merge of every per-worker snapshot.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    if workers == 0:
        workers = multiprocessing.cpu_count()
    jobs = list(jobs)
    validate_jobs(jobs)
    start = time.perf_counter()
    if workers == 1 or len(jobs) <= 1:
        fresh = [execute_job(job) for job in jobs]
    else:
        context = multiprocessing.get_context(start_method or default_start_method())
        with context.Pool(processes=min(workers, len(jobs))) as pool:
            fresh = pool.map(execute_job, jobs, chunksize=1)
    merged = sorted(fresh, key=lambda result: result.key)
    metrics = MetricsRegistry()
    for result in merged:
        if result.metrics:
            metrics.merge(result.metrics)
    return CampaignResult(
        results=merged,
        digest=campaign_digest(merged),
        workers=workers,
        wall_s=time.perf_counter() - start,
        metrics=metrics,
    )
