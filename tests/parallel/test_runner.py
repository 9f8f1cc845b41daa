"""The campaign runner's central promise: -j N never changes a result."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    Job,
    campaign_digest,
    chaos_jobs,
    default_start_method,
    resolve_entry_point,
    run_campaign,
    sweep_jobs,
    validate_jobs,
)

# A small deterministic workload: four seeds of the fast characterization.
SWEEP = sweep_jobs("voip", seeds=[1, 2, 3, 4], paths=["umts"], duration=5.0)


class TestJobModel:
    def test_duplicate_keys_rejected(self):
        jobs = [Job(kind="k", key="same"), Job(kind="k", key="same")]
        with pytest.raises(ValueError, match="duplicate job key"):
            validate_jobs(jobs)
        with pytest.raises(ValueError, match="duplicate job key"):
            run_campaign(jobs)

    def test_unknown_kind_is_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            resolve_entry_point("no-such-kind")

    def test_builders_reject_bad_input(self):
        with pytest.raises(KeyError):
            chaos_jobs(names=["no-such-scenario"])
        with pytest.raises(ValueError):
            chaos_jobs(repeats=0)
        with pytest.raises(KeyError):
            sweep_jobs("nope", seeds=[1], paths=["umts"], duration=1.0)
        for duration in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sweep_jobs("voip", seeds=[1], paths=["umts"], duration=duration)


class TestDeterministicMerge:
    def test_digest_identical_across_worker_counts(self):
        serial = run_campaign(SWEEP, workers=1)
        pooled = run_campaign(SWEEP, workers=4)
        assert serial.digest == pooled.digest
        assert [r.stable for r in serial.results] == [
            r.stable for r in pooled.results
        ]

    def test_digest_independent_of_submission_order(self):
        forward = run_campaign(SWEEP, workers=1)
        backward = run_campaign(list(reversed(SWEEP)), workers=1)
        assert forward.digest == backward.digest
        assert campaign_digest(forward.results) == campaign_digest(
            list(reversed(forward.results))
        )

    def test_results_come_back_key_sorted(self):
        campaign = run_campaign(list(reversed(SWEEP)), workers=2)
        keys = [result.key for result in campaign.results]
        assert keys == sorted(keys)

    def test_spawn_start_method_matches_fork(self):
        # The spawn path re-imports everything in the worker; two jobs
        # keep it cheap while still exercising a real pool.
        jobs = SWEEP[:2]
        reference = run_campaign(jobs, workers=1)
        spawned = run_campaign(jobs, workers=2, start_method="spawn")
        assert spawned.digest == reference.digest

    def test_workers_zero_means_cpu_count(self):
        campaign = run_campaign(SWEEP[:2], workers=0)
        assert campaign.workers >= 1
        assert campaign.digest == run_campaign(SWEEP[:2], workers=1).digest

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(SWEEP, workers=-1)

    def test_default_start_method_is_real(self):
        import multiprocessing

        assert default_start_method() in multiprocessing.get_all_start_methods()


class TestChaosCampaignParity:
    """The 17-scenario chaos suite is the flagship -j workload."""

    def test_full_campaign_digest_equal_j1_j4(self):
        jobs = chaos_jobs()
        assert len(jobs) == 17
        serial = run_campaign(jobs, workers=1)
        pooled = run_campaign(jobs, workers=4)
        assert serial.digest == pooled.digest
        assert all(r.stable["ok"] for r in serial.results)

    def test_batched_repeats_reproduce_and_count(self):
        jobs = chaos_jobs(names=["dial_no_carrier"], repeats=3)
        campaign = run_campaign(jobs, workers=1)
        (result,) = campaign.results
        assert result.stable["campaign_repeats"] == 3
        single = run_campaign(chaos_jobs(names=["dial_no_carrier"]), workers=1)
        assert result.stable["digest"] == single.results[0].stable["digest"]


class TestMetricsFold:
    def test_campaign_metrics_sum_worker_registries(self):
        jobs = chaos_jobs(names=["dial_no_carrier", "session_drop"])
        campaign = run_campaign(jobs, workers=2)
        folded = campaign.metrics.counter("engine.events_dispatched").value
        by_job = sum(
            r.metrics["engine.events_dispatched"]["value"]
            for r in campaign.results
        )
        assert folded == by_job > 0

    def test_simulated_metrics_identical_across_j(self):
        jobs = chaos_jobs(names=["dial_no_carrier", "session_drop"])
        serial = run_campaign(jobs, workers=1).metrics.snapshot()
        pooled = run_campaign(jobs, workers=2).metrics.snapshot()
        # Wall-clock histograms legitimately differ run to run; every
        # simulated-domain metric must not.
        serial.pop("engine.dispatch_wall_seconds")
        pooled.pop("engine.dispatch_wall_seconds")
        assert serial == pooled


class TestMetricsRegistryDefault:
    def test_sweep_jobs_ship_simulated_metrics(self):
        campaign = run_campaign(SWEEP[:1], workers=1)
        assert isinstance(campaign.metrics, MetricsRegistry)
        assert campaign.metrics.counter("engine.events_dispatched").value > 0
        assert campaign.metrics.counter("traffic.packets_sent").value > 0

    def test_campaign_without_metrics_yields_empty_registry(self):
        campaign = run_campaign([], workers=1)
        assert isinstance(campaign.metrics, MetricsRegistry)
        assert len(campaign.metrics) == 0
