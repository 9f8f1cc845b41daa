"""The summary arithmetic of ``tools/perf_ab.py``, on canned perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"
spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)


def perfbench_stdout(correct=True, **values):
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    last = {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    return "perfbench session_churn seed=3 trace=0: ...\n  digest block: ...\n" + json.dumps(last)


def test_parse_result_reads_the_last_line():
    out = perfbench_stdout(ops_per_s=500.0, setup_s=0.001)
    assert perf_ab.parse_result(out) == {"ops_per_s": 500.0, "setup_s": 0.001}


@pytest.mark.parametrize("out", [perfbench_stdout(correct=False, ops_per_s=1.0), ""])
def test_parse_result_refuses_an_incorrect_or_empty_run(out):
    with pytest.raises(ValueError):
        perf_ab.parse_result(out)


def test_summary_row_arithmetic():
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [130.0, 120.0, 126.0, 110.0, 114.0]
    row = perf_ab.summary_row("session_churn", "ops_per_s", base, change, "higher")
    # Base: median 100, inclusive quartiles 95 and 105.  Change: median
    # 120, quartiles 114 and 126.  Pair ratios 1.3, 12/11, 1.4, 22/21, 1.2.
    assert row == (
        "| session_churn | ops_per_s | 100.0 [95.00, 105.0] | 120.0 [114.0, 126.0] "
        "| 1.200 | 1.200 (1.048–1.400) | 5/5 | holds |"
    )


def test_lower_is_better_counts_wins_and_setup_shows_in_ms():
    row = perf_ab.summary_row("fleet_group", "setup_s", [0.010, 0.012], [0.011, 0.009], "lower")
    assert row.startswith(
        "| fleet_group | setup_s (ms) | 11.00 [10.50, 11.50] | 10.00 [9.500, 10.50] "
    )
    assert row.endswith("| 0.909 | 0.925 (0.750–1.100) | 1/2 | no |")


def test_summarize_keeps_the_report_order_and_pairs_runs():
    base = [
        perf_ab.parse_result(perfbench_stdout(ops_per_s=v, peak_rss_mb=28.0)) for v in (10, 20)
    ]
    change = [
        perf_ab.parse_result(perfbench_stdout(ops_per_s=v, peak_rss_mb=27.0)) for v in (30, 10)
    ]
    rows = perf_ab.summarize("w", base, change, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    assert [row.split(" | ")[1] for row in rows] == ["ops_per_s", "peak_rss_mb"]
    assert rows[0].endswith("| 1.333 | 1.750 (0.500–3.000) | 1/2 | no |")
    assert rows[1].endswith("| 0.964 | 0.964 (0.964–0.964) | 2/2 | holds |")


BASE = [98.0, 99.0, 101.0, 102.0, 103.0, 104.0, 97.0, 96.0, 100.0, 100.5]


@pytest.mark.parametrize(
    "change, holds",
    [
        # 9 of 10 pairs won and the median gain (9.25) beyond the IQR (3.5).
        ([b + 10.0 for b in BASE[:9]] + [BASE[9] - 1.0], True),
        # 8 of 10 pairs won: too few.
        ([b + 10.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]], False),
        # Every pair won, but the median gain (0.5) inside the IQR (3.5).
        ([b + 0.5 for b in BASE], False),
    ],
)
def test_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_base_iqr(
    change, holds
):
    row = perf_ab.summary_row("w", "ops_per_s", BASE, change, "higher")
    assert row.endswith("| holds |" if holds else "| no |")


def test_main_interleaves_every_workload_and_seed_and_prints_one_table(monkeypatch, capsys):
    """Two workloads x two seeds x two pairs, on canned runs: both trees
    are unpacked once, pair 1 of every case runs before any pair 2, the
    first side alternates, and the table has a row per case and metric."""
    repo = TOOL.parents[1]
    unpacked, calls = [], []
    monkeypatch.setattr(
        perf_ab, "_git", lambda where, *args: str(repo).encode() if args[0] == "rev-parse" else b""
    )
    monkeypatch.setattr(perf_ab, "working_tree_tar", lambda where: b"")
    monkeypatch.setattr(perf_ab, "unpack", lambda data, dest: unpacked.append(dest.name) or dest)

    def run_perfbench(tree, workload, seed, seconds):
        calls.append((workload, seed, tree.name))
        value = 100.0 + len(calls)
        return {"ops_per_s": value * (1.2 if tree.name == "change" else 1.0), "peak_rss_mb": 30.0}

    monkeypatch.setattr(perf_ab, "run_perfbench", run_perfbench)
    argv = ["--base", "HEAD", "--workload", "fleet_group", "--workload", "session_churn",
            "--seed", "3", "--seed", "11", "--pairs", "2", "--seconds", "1"]
    assert perf_ab.main(argv) == 0
    assert unpacked == ["base", "change"]
    cases = [("fleet_group", 3), ("fleet_group", 11), ("session_churn", 3), ("session_churn", 11)]
    assert calls == [
        (workload, seed, side)
        for order in (("base", "change"), ("change", "base"))
        for workload, seed in cases
        for side in order
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == perf_ab.HEADER.splitlines()
    assert [tuple(row.split(" | ")[:2]) for row in out[3:]] == [
        (f"| {workload}, seed {seed}", metric)
        for workload, seed in cases
        for metric in ("ops_per_s", "peak_rss_mb")
    ]
    assert all(row.endswith("| 2/2 | holds |") for row in out[3::2])
    assert all(row.endswith("| 0/2 | no |") for row in out[4::2])


def test_fmt_uses_four_significant_digits():
    assert [perf_ab.fmt(v) for v in (17934.2, 636.74, 62.571, 1.8574, 0.81349)] == [
        "17,934", "636.7", "62.57", "1.857", "0.8135",
    ]
