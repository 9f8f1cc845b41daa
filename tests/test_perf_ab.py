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
        "| 1.200 | 1.200 (1.048–1.400) | 5/5 |"
    )


def test_lower_is_better_counts_wins_and_setup_shows_in_ms():
    row = perf_ab.summary_row("fleet_group", "setup_s", [0.010, 0.012], [0.011, 0.009], "lower")
    assert row.startswith(
        "| fleet_group | setup_s (ms) | 11.00 [10.50, 11.50] | 10.00 [9.500, 10.50] "
    )
    assert row.endswith("| 0.909 | 0.925 (0.750–1.100) | 1/2 |")


def test_summarize_keeps_the_report_order_and_pairs_runs():
    base = [
        perf_ab.parse_result(perfbench_stdout(ops_per_s=v, peak_rss_mb=28.0)) for v in (10, 20)
    ]
    change = [
        perf_ab.parse_result(perfbench_stdout(ops_per_s=v, peak_rss_mb=27.0)) for v in (30, 10)
    ]
    rows = perf_ab.summarize("w", base, change, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    assert [row.split(" | ")[1] for row in rows] == ["ops_per_s", "peak_rss_mb"]
    assert rows[0].endswith("| 1.333 | 1.750 (0.500–3.000) | 1/2 |")
    assert rows[1].endswith("| 0.964 | 0.964 (0.964–0.964) | 2/2 |")


def test_fmt_uses_four_significant_digits():
    assert [perf_ab.fmt(v) for v in (17934.2, 636.74, 62.571, 1.8574, 0.81349)] == [
        "17,934", "636.7", "62.57", "1.857", "0.8135",
    ]
