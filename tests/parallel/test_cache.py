"""Content-addressed cache: keying, invalidation, hit/miss accounting."""

import pytest

from repro.parallel import Job, ResultCache, execute_job, run_campaign, sweep_jobs
from repro.parallel.cache import default_cache_dir, tree_digest


def make_job(seed: int = 1, duration: float = 5.0) -> Job:
    return sweep_jobs("voip", seeds=[seed], paths=["umts"], duration=duration)[0]


class TestCacheKey:
    def test_key_is_stable_for_identical_jobs(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_digest="d1")
        assert cache.key_for(make_job()) == cache.key_for(make_job())

    def test_seed_change_changes_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_digest="d1")
        assert cache.key_for(make_job(seed=1)) != cache.key_for(make_job(seed=2))

    def test_config_change_changes_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_digest="d1")
        assert cache.key_for(make_job(duration=5.0)) != cache.key_for(
            make_job(duration=6.0)
        )

    def test_source_digest_change_changes_key(self, tmp_path):
        before = ResultCache(root=tmp_path, source_digest="d1")
        after = ResultCache(root=tmp_path, source_digest="d2")
        assert before.key_for(make_job()) != after.key_for(make_job())

    def test_default_source_digest_is_the_package_tree(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert len(cache.source_digest) == 64  # a real SHA-256

    def test_tree_digest_tracks_any_source_file(self, tmp_path):
        tree = tmp_path / "pkg"
        (tree / "sub").mkdir(parents=True)
        (tree / "a.py").write_text("A = 1\n")
        (tree / "sub" / "b.py").write_text("B = 2\n")
        (tree / "notes.txt").write_text("not hashed\n")
        first = tree_digest(tree)
        (tree / "notes.txt").write_text("still not hashed\n")
        assert tree_digest(tree) == first
        (tree / "sub" / "b.py").write_text("B = 3\n")
        assert tree_digest(tree) != first


class TestCacheBehaviour:
    def test_store_then_load_round_trips(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_digest="d1")
        job = make_job()
        result = execute_job(job)
        cache.store(job, result)
        hit = cache.load(job)
        assert hit is not None and hit.cached
        assert hit.stable_digest_line() == result.stable_digest_line()
        assert cache.stats.as_dict() == {"hits": 1, "misses": 0, "stores": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_digest="d1")
        job = make_job()
        cache.store(job, execute_job(job))
        cache.path_for(job).write_text("{not json")
        assert cache.load(job) is None
        assert cache.stats.misses == 1

    def test_campaign_second_run_is_all_hits(self, tmp_path):
        jobs = sweep_jobs("voip", seeds=[1, 2], paths=["umts"], duration=5.0)
        first = run_campaign(jobs, workers=2, cache=ResultCache(
            root=tmp_path, source_digest="d1"))
        assert first.cache_stats == {"hits": 0, "misses": 2, "stores": 2}
        second = run_campaign(jobs, workers=2, cache=ResultCache(
            root=tmp_path, source_digest="d1"))
        assert second.cache_stats == {"hits": 2, "misses": 0, "stores": 0}
        assert second.digest == first.digest
        assert second.cached_count() == 2

    def test_source_change_invalidates_campaign_cache(self, tmp_path):
        jobs = sweep_jobs("voip", seeds=[1], paths=["umts"], duration=5.0)
        run_campaign(jobs, cache=ResultCache(root=tmp_path, source_digest="d1"))
        after_edit = run_campaign(
            jobs, cache=ResultCache(root=tmp_path, source_digest="d2")
        )
        assert after_edit.cache_stats["hits"] == 0
        assert after_edit.cache_stats["misses"] == 1

    def test_default_dir_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"


@pytest.mark.parametrize("workers", [1, 3])
def test_cache_hits_preserve_merge_order(tmp_path, workers):
    jobs = sweep_jobs("voip", seeds=[1, 2, 3], paths=["umts"], duration=5.0)
    cache = ResultCache(root=tmp_path, source_digest="d1")
    reference = run_campaign(jobs, workers=workers, cache=cache)
    # Warm cache for a strict subset, then re-run all: mixed hit/fresh
    # results must still merge into the same digest.
    partial = ResultCache(root=tmp_path, source_digest="d1")
    mixed = run_campaign(jobs, workers=workers, cache=partial)
    assert mixed.cache_stats["hits"] == 3
    assert mixed.digest == reference.digest
