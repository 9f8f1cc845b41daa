"""CLI-level parity: -j N never changes command output."""

import json

from repro.__main__ import main


class TestChaosSharded:
    def test_jsonl_byte_identical_j1_vs_j2(self, tmp_path):
        one = tmp_path / "j1.jsonl"
        two = tmp_path / "j2.jsonl"
        assert main(["chaos", "--jsonl", str(one)]) == 0
        assert main(["chaos", "-j", "2", "--jsonl", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_check_j2_reproduces_every_digest(self, tmp_path, capsys):
        path = tmp_path / "check.jsonl"
        assert main(["chaos", "--scenario", "dial_no_carrier", "--scenario",
                     "session_drop", "--check", "-j", "2", "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "NON-DETERMINISTIC" not in out
        assert "ok  " in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["deterministic"] for r in records] == [True, True]

    def test_j2_prints_campaign_footer(self, capsys):
        assert main(["chaos", "--scenario", "dial_no_carrier", "--scenario",
                     "session_drop", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "dial_no_carrier" in out and "session_drop" in out
        assert "campaign: digest=" in out and "workers=2" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweep:
    def test_sweep_table_and_jsonl(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--kind", "voip", "--seeds", "1:3",
                     "--duration", "5", "-j", "3",
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
                         "-j", jobs]) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines()
                       if ln.startswith("campaign: digest=")]
            return line.split()[1]

        assert run("1") == run("2")

    def test_seed_list_and_both_paths(self, capsys):
        assert main(["sweep", "--seeds", "7", "--path", "both",
                     "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "ethernet" in out and "umts" in out

    def test_bad_seed_spec_exits_2(self, capsys):
        assert main(["sweep", "--seeds", "9:1"]) == 2
        assert "bad seed range" in capsys.readouterr().err

