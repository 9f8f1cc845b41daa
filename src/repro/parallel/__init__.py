"""Sharded campaign execution with a deterministic merge.

Campaigns — the chaos suite, scenario-grammar points, seed sweeps,
fleet groups — are embarrassingly parallel: every job is an
independent simulation fully described by its payload.  This package
shards them across a process pool and merges the results in
stable job-key order, so the campaign digest is bit-identical for any
``-j``.  Every job runs fresh.  See ``docs/PARALLEL.md`` for the job
model and the determinism contract.
"""

from repro.parallel.entrypoints import (
    chaos_jobs,
    fleet_jobs,
    scenario_jobs,
    sweep_jobs,
)
from repro.parallel.jobs import (
    ENTRY_POINTS,
    Job,
    JobOutput,
    JobResult,
    entry_point,
    resolve_entry_point,
    validate_jobs,
)
from repro.parallel.runner import (
    CampaignResult,
    campaign_digest,
    default_start_method,
    execute_job,
    run_campaign,
)

__all__ = [
    "ENTRY_POINTS",
    "CampaignResult",
    "Job",
    "JobOutput",
    "JobResult",
    "campaign_digest",
    "chaos_jobs",
    "default_start_method",
    "entry_point",
    "execute_job",
    "fleet_jobs",
    "resolve_entry_point",
    "run_campaign",
    "scenario_jobs",
    "sweep_jobs",
    "validate_jobs",
]
