"""Tests for the ``python -m repro`` command-line interface."""

import hashlib
import json

import pytest

from repro.__main__ import main


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "pppd: ppp0 up" in out
    assert "locked by: unina_umts" in out
    assert "demo complete" in out


def test_trace_command(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    for phase in ("dial.register", "dial.dial", "ppp.lcp.negotiation",
                  "ppp.ipcp.negotiation", "dial.addr_assigned",
                  "vsys.request", "umts.cmd"):
        assert phase in out, f"missing {phase} in trace output"
    assert "metrics:" in out
    assert "vsys.requests: 4" in out
    assert "flight recorder dump" not in out


def test_trace_fail_dumps_flight_recorder(capsys):
    assert main(["trace", "--fail"]) == 1
    out = capsys.readouterr().out
    assert "dial.dial.failed" in out
    assert "flight recorder dump" in out


def test_trace_jsonl_export(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "--jsonl", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"trace exported to {path}" in out
    lines = path.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"seq", "t", "kind", "name"} <= set(record)


def test_trace_last_bounds_the_printed_ring(capsys):
    assert main(["trace", "--last", "5"]) == 0
    out = capsys.readouterr().out
    assert "trace: last 5 of" in out
    # Early bring-up events must have been evicted from the ring.
    assert "dial.register" not in out
    assert "metrics:" in out


def test_trace_last_rejects_nonpositive(capsys):
    assert main(["trace", "--last", "0"]) == 2
    assert "--last must be positive" in capsys.readouterr().err


def test_report_run_mode(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "run report: seed=3" in out
    assert "critical path: vsys.request > umts.cmd > umts.connect" in out
    assert "by subsystem" in out
    assert "by process" in out
    assert "metrics:" in out


def test_report_openmetrics_double_run_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.om", tmp_path / "b.om"
    assert main(["report", "--openmetrics", str(first)]) == 0
    assert main(["report", "--openmetrics", str(second)]) == 0
    data = first.read_bytes()
    assert data == second.read_bytes()
    assert data.startswith(b"# TYPE repro_")
    assert data.endswith(b"# EOF\n")
    assert b"wall" not in data  # volatile families excluded by default


def test_report_openmetrics_to_stdout(capsys):
    assert main(["report", "--openmetrics"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# TYPE repro_")
    assert out.endswith("# EOF\n")
    assert "run report" not in out  # exposition only, nothing mixed in


def test_report_jsonl_records(tmp_path):
    path = tmp_path / "report.jsonl"
    assert main(["report", "--jsonl", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [record["record"] for record in records]
    assert kinds.count("profile") == 1
    assert kinds.count("metrics") == 1
    assert kinds.count("phase") > 5
    phases = {r["phase"] for r in records if r["record"] == "phase"}
    assert "umts.connect" in phases
    assert any(r["critical"] for r in records if r["record"] == "phase")
    (metrics,) = [r for r in records if r["record"] == "metrics"]
    assert "engine.events_dispatched" in metrics["metrics"]
    assert "engine.dispatch_wall_seconds" not in metrics["metrics"]
    # Pins the profile, phase and metrics records byte for byte (seed 3).
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "26262617e9c2f7508bfbcbc7c6fb3ce483188a031ba1b94ff1a1b98cd18b349b")


def test_report_campaign_openmetrics_identical_across_workers(tmp_path):
    serial, pooled = tmp_path / "j1.om", tmp_path / "j2.om"
    base = ["report", "--campaign", "sweep", "--seeds", "1:2",
            "--duration", "5"]
    assert main(base + ["-j", "1", "--openmetrics", str(serial)]) == 0
    assert main(base + ["-j", "2", "--openmetrics", str(pooled)]) == 0
    data = serial.read_bytes()
    assert data == pooled.read_bytes()
    assert b"repro_traffic_packets_sent_total" in data


def test_report_campaign_human_summary(capsys):
    assert main(["report", "--campaign", "sweep", "--seeds", "1",
                 "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert "sweep campaign: 1 job(s)" in out
    assert "traffic.packets_sent" in out


def test_report_rejects_bad_seed_spec(capsys):
    assert main(["report", "--campaign", "sweep", "--seeds", "9:1"]) == 2
    assert "bad seed range" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["nan", "inf", "0"])
@pytest.mark.parametrize(
    "command",
    [["voip"], ["saturation"], ["sweep", "--seeds", "1"],
     ["report", "--campaign", "sweep", "--seeds", "1"],
     ["fleet", "--nodes", "2"]],
)
def test_non_finite_duration_is_a_usage_error(command, duration, capsys):
    # A NaN or infinite duration used to pass every check and hang the
    # run (or, for fleet, end in a hung group) instead of a usage error.
    with pytest.raises(SystemExit) as exc:
        main(command + ["--duration", duration])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "--duration: must be finite and positive" in err


def test_voip_command(capsys):
    assert main(["--seed", "5", "voip", "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert "UMTS-to-Ethernet" in out
    assert "Ethernet-to-Ethernet" in out
    assert "jitter ratio" in out
    assert "0 vs 0 packets" in out


def test_saturation_command(capsys):
    assert main(["saturation", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    assert "RAB grades" in out
    assert "144k@0s" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["fly"])


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [
        "direct-rng", "id-ordering", "lease-protocol", "metric-name",
        "resource-lifecycle", "retry-policy", "set-iteration",
        "unseeded-random", "untyped-def", "wall-clock", "worker-safety",
    ]


def test_lint_clean_tree_exits_zero(capsys):
    # Default target is the installed repro package; it must be clean.
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "lint: 0 finding(s)" in out


def test_lint_findings_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\n\ndef f() -> float:\n    return time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "lint: 1 finding(s)" in out


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", "--rule", "warp-drive"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_lint_rule_filter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\n\ndef f() -> float:\n    return time.time()\n")
    # Filtering to an unrelated rule must not report the wall-clock read.
    assert main(["lint", "--rule", "id-ordering", str(bad)]) == 0
    capsys.readouterr()
    assert main(["lint", "--rule", "wall-clock", str(bad)]) == 1


def test_lint_jsonl_export(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n\n\ndef f() -> float:\n    return random.random()\n")
    report = tmp_path / "lint.jsonl"
    assert main(["lint", "--jsonl", str(report), str(bad)]) == 1
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["rule"] == "unseeded-random"
    assert records[0]["line"] == 5
    assert records[0]["severity"] == "error"


def test_lint_jsonl_stdout(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n\n\ndef f() -> float:\n    return random.random()\n")
    # --jsonl without a path streams to stdout (the option must come
    # after the positional so argparse doesn't swallow it as the path).
    assert main(["lint", str(bad), "--jsonl"]) == 1
    out = capsys.readouterr().out
    record = json.loads(out.splitlines()[0])
    assert record["rule"] == "unseeded-random"


def test_lint_unknown_rule_lists_the_known_ones(capsys):
    assert main(["lint", "--rule", "warp-drive"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule 'warp-drive'" in err
    assert "available:" in err
    assert "resource-lifecycle" in err
    assert "lease-protocol" in err


def _leaky_tree(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "hot.py").write_text(
        "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"
    )
    (tree / "leak.py").write_text(
        "class C:\n"
        "    def f(self, trace: object, fast: bool) -> int:\n"
        "        span = trace.span('umts.cmd')\n"
        "        if fast:\n"
        "            return 1\n"
        "        span.end()\n"
        "        return 0\n"
    )
    return tree


def test_lint_overlapping_paths_count_once(tmp_path, capsys):
    tree = _leaky_tree(tmp_path)
    assert main(["lint", str(tree), str(tree / "hot.py")]) == 1
    out = capsys.readouterr().out
    assert "lint: 2 finding(s)" in out


def test_lint_missing_path_is_an_error(tmp_path, capsys):
    # A typo in a CI or pre-commit path used to lint nothing and pass.
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["lint", str(tmp_path), str(missing)]) == 2
    captured = capsys.readouterr()
    assert f"lint: no such file or directory: {missing}" in captured.err
    assert "finding(s)" not in captured.out


def test_lint_skips_existing_non_python_files(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("time.time()\n")
    assert main(["lint", str(notes)]) == 0
    assert "lint: 0 finding(s)" in capsys.readouterr().out


CACHE_FLAGS = [["--no-cache"], ["--cache-stats"], ["--cache-dir", "cache"]]
CAMPAIGNS = [["chaos"], ["sweep"], ["report", "--campaign", "chaos"], ["fleet"]]


@pytest.mark.parametrize(
    "flag",
    [["lint", "-j", "2"]] + [["lint"] + flag for flag in CACHE_FLAGS]
    + [command + flag for command in CAMPAIGNS for flag in CACHE_FLAGS],
)
def test_lint_has_no_campaign_flags(flag, capsys):
    # Lint is one in-process pass with no sharding, and no command has a
    # result cache: every campaign runs fresh.
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["sweep", "-j", "-3"], ["report", "--campaign", "sweep", "-j", "-1"],
     ["chaos", "--jobs", "-2"], ["fleet", "-j", "-1"]],
)
def test_negative_jobs_is_a_usage_error(command, capsys):
    # A negative worker count used to reach run_campaign and die with a
    # traceback and exit 1, the code chaos/fleet use for a failed run.
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "--jobs: must be >= 0" in err
