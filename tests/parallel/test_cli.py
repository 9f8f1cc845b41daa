"""CLI-level parity: -j N and the cache never change command output."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestChaosSharded:
    def test_jsonl_byte_identical_j1_vs_j2(self, tmp_path, cache_dir):
        one = tmp_path / "j1.jsonl"
        two = tmp_path / "j2.jsonl"
        assert main(["chaos", "--jsonl", str(one), "--no-cache"]) == 0
        assert main(["chaos", "-j", "2", "--jsonl", str(two), "--no-cache"]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_cache_round_trip_with_stats(self, tmp_path, cache_dir, capsys):
        args = ["chaos", "--scenario", "dial_no_carrier",
                "--cache-dir", cache_dir, "--cache-stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache: hits=0 misses=1 stores=1" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache: hits=1 misses=0 stores=0" in second
        assert "cached=1/1" in second

    def test_check_runs_fresh_even_with_warm_cache(self, cache_dir, capsys):
        args = ["chaos", "--scenario", "dial_no_carrier",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--check", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "NON-DETERMINISTIC" not in out
        assert "ok  " in out

    def test_j2_prints_campaign_footer(self, capsys):
        assert main(["chaos", "--scenario", "dial_no_carrier", "--scenario",
                     "session_drop", "-j", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "dial_no_carrier" in out and "session_drop" in out
        assert "workers=2 cached=0/2" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenario", "nope", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweep:
    def test_sweep_table_and_jsonl(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--kind", "voip", "--seeds", "1:3",
                     "--duration", "5", "-j", "3", "--no-cache",
                     "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "voip sweep: 3 seed(s) x 1 path(s)" in out
        assert out.count("seed=") == 3
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seed"] for r in records] == [1, 2, 3]
        assert all(len(r["digest"]) == 64 for r in records)

    def test_sweep_digest_independent_of_jobs(self, tmp_path, capsys):
        def run(jobs):
            assert main(["sweep", "--seeds", "3,5", "--duration", "5",
                         "-j", jobs, "--no-cache"]) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines()
                       if ln.startswith("campaign: digest=")]
            return line.split()[1]

        assert run("1") == run("2")

    def test_seed_list_and_both_paths(self, capsys):
        assert main(["sweep", "--seeds", "7", "--path", "both",
                     "--duration", "5", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "ethernet" in out and "umts" in out

    def test_bad_seed_spec_exits_2(self, capsys):
        assert main(["sweep", "--seeds", "9:1", "--no-cache"]) == 2
        assert "bad seed range" in capsys.readouterr().err

    def test_sweep_cache_hits_on_rerun(self, cache_dir, capsys):
        args = ["sweep", "--seeds", "11", "--duration", "5",
                "--cache-dir", cache_dir, "--cache-stats"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "hits=1 misses=0" in out
        assert "cached=1/1" in out
