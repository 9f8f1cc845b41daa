"""The sharded campaign runner: process pool, deterministic merge.

``run_campaign`` executes independent jobs across ``workers``
processes and merges results **sorted by job key**, so the campaign
digest — SHA-256 over each result's canonical ``stable`` record in key
order — is bit-identical for any ``-j``: scheduling order, worker
count, fork vs spawn, and cache hits all cancel out of the digest.
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
from repro.parallel.cache import ResultCache
from repro.parallel.jobs import Job, JobResult, resolve_entry_point, validate_jobs


def execute_job(job: Job) -> JobResult:
    """Run one job to completion in this process (the worker body)."""
    entry = resolve_entry_point(job.kind)
    start = time.perf_counter()
    output = entry(dict(job.payload))
    wall = time.perf_counter() - start
    return JobResult(
        key=job.key,
        kind=job.kind,
        stable=output.stable,
        metrics=output.metrics,
        wall_s=wall,
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
    cache_stats: Optional[Dict[str, int]] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def by_key(self) -> Dict[str, JobResult]:
        """key → result, for report reassembly in submission order."""
        return {result.key: result for result in self.results}

    def cached_count(self) -> int:
        """How many results were served from the cache."""
        return sum(1 for result in self.results if result.cached)


def run_campaign(
    jobs: Sequence[Job],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    start_method: Optional[str] = None,
) -> CampaignResult:
    """Execute ``jobs`` with ``workers`` processes and merge by key.

    ``workers=1`` runs in-process (no pool); ``workers=0`` means one
    per CPU.  With a ``cache``, jobs whose content address already has
    a result are skipped and restored; fresh results are stored back.
    The returned results are key-sorted, the digest is order- and
    ``workers``-independent, and ``metrics`` holds the key-ordered
    merge of every per-worker snapshot.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    if workers == 0:
        workers = multiprocessing.cpu_count()
    jobs = list(jobs)
    validate_jobs(jobs)
    start = time.perf_counter()
    results: Dict[str, JobResult] = {}
    pending: List[Job] = []
    for job in jobs:
        hit = cache.load(job) if cache is not None else None
        if hit is not None:
            results[job.key] = hit
        else:
            pending.append(job)
    if pending:
        if workers == 1 or len(pending) == 1:
            fresh = [execute_job(job) for job in pending]
        else:
            context = multiprocessing.get_context(
                start_method or default_start_method()
            )
            with context.Pool(processes=min(workers, len(pending))) as pool:
                fresh = pool.map(execute_job, pending, chunksize=1)
        for job, result in zip(pending, fresh):
            results[job.key] = result
            if cache is not None:
                cache.store(job, result)
    merged = [results[key] for key in sorted(results)]
    metrics = MetricsRegistry()
    for result in merged:
        if result.metrics:
            metrics.merge(result.metrics)
    return CampaignResult(
        results=merged,
        digest=campaign_digest(merged),
        workers=workers,
        wall_s=time.perf_counter() - start,
        cache_stats=cache.stats.as_dict() if cache is not None else None,
        metrics=metrics,
    )
