"""A/B timing of a revision against the working tree, with perfbench.

Usage, from anywhere inside the repository::

    python3 tools/perf_ab.py --base HEAD~1 --workload fleet_group --seed 3 \\
        --seed 11 --pairs 10 --seconds 30

``--workload`` and ``--seed`` may each be given more than once; every
workload runs at every seed.  Both sides are unpacked once, the same
way, into sibling directories of one temporary directory: ``git archive
REV`` for the base, and a tar of the working tree's tracked files (as
they are on disk) for the change, each extracted with :mod:`tarfile`.
Then ``perfbench/run.py`` runs unchanged in each tree.  Pair ``i`` of
every workload × seed runs before pair ``i + 1`` of any, and the side
that runs first alternates from pair to pair.  A run that exits
non-zero or does not report ``"correct": true`` stops the comparison.

The summary is one Markdown table, the form CHANGES.md records, with a
row per workload, seed and end-to-end metric: each side's median
[q1, q3], the ratio of medians (change / base), the median of the
per-pair ratios with their range, the pairs the change won (by the
metric's ``better`` direction in ``BENCHMARK.json``), and whether the
claim rule holds: the change won at least nine tenths of the pairs and
its median is better than the base's by more than the base's
interquartile range.  ``setup_s`` is shown in milliseconds.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Metrics shown in another unit than perfbench reports: (label, scale).
DISPLAY = {"setup_s": ("setup_s (ms)", 1e3)}

HEADER = (
    "| workload | metric | base median [q1, q3] | change median [q1, q3] "
    "| ratio of medians | median pair ratio (range) | wins | claim rule |\n"
    "|---|---|---|---|---|---|---|---|"
)


def fmt(value: float) -> str:
    """Four significant digits, with thousands separators."""
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    decimals = max(0, 3 - math.floor(math.log10(abs(value))))
    return f"{round(value, decimals):,.{decimals}f}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def parse_result(stdout: str) -> Dict[str, float]:
    """The end-to-end metric values of one perfbench run's output.

    Raises ``ValueError`` unless the last line reports ``"correct": true``.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise ValueError(f"perfbench run is not correct: {lines[-1]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary_row(
    workload: str,
    metric: str,
    base: Sequence[float],
    change: Sequence[float],
    better: str,
) -> str:
    """One table row for ``metric`` over paired runs (``base[i]`` with
    ``change[i]``)."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change runs")
    label, scale = DISPLAY.get(metric, (metric, 1.0))
    base_q = quartiles([v * scale for v in base])
    change_q = quartiles([v * scale for v in change])
    ratios = [c / b for b, c in zip(base, change)]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gain = sign * (change_q[1] - base_q[1])
    claim = wins * 10 >= 9 * len(base) and gain > base_q[2] - base_q[0]
    return (
        f"| {workload} | {label} "
        f"| {fmt(base_q[1])} [{fmt(base_q[0])}, {fmt(base_q[2])}] "
        f"| {fmt(change_q[1])} [{fmt(change_q[0])}, {fmt(change_q[2])}] "
        f"| {statistics.median(change) / statistics.median(base):.3f} "
        f"| {statistics.median(ratios):.3f} ({min(ratios):.3f}–{max(ratios):.3f}) "
        f"| {wins}/{len(base)} | {'holds' if claim else 'no'} |"
    )


def summarize(
    workload: str,
    base_runs: List[Dict[str, float]],
    change_runs: List[Dict[str, float]],
    better: Dict[str, str],
) -> List[str]:
    """Table rows for every metric the runs report, in report order."""
    return [
        summary_row(
            workload,
            name,
            [run[name] for run in base_runs],
            [run[name] for run in change_runs],
            better[name],
        )
        for name in base_runs[0]
    ]


def _git(repo: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, stdout=subprocess.PIPE
    ).stdout


def working_tree_tar(repo: Path) -> bytes:
    """A tar of the tracked files as they are on disk."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        for name in _git(repo, "ls-files", "-z").decode().split("\0"):
            if name and (repo / name).is_file():
                tar.add(repo / name, arcname=name, recursive=False)
    return buffer.getvalue()


def unpack(data: bytes, dest: Path) -> Path:
    dest.mkdir()
    # The "data" filter where this Python has it (3.9.17+, 3.11.4+).
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)
    return dest


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ValueError(f"perfbench exited {done.returncode} in {tree}")
    return parse_result(done.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    declared = json.loads((repo / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    cases = [(workload, seed) for workload in args.workload for seed in args.seed]
    runs: Dict[Tuple[str, int, str], List[Dict[str, float]]] = {
        (workload, seed, side): [] for workload, seed in cases for side in ("base", "change")
    }
    scratch = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        trees = {
            "base": unpack(_git(repo, "archive", "--format=tar", args.base), scratch / "base"),
            "change": unpack(working_tree_tar(repo), scratch / "change"),
        }
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload, seed in cases:
                for side in order:
                    label = f"{workload} seed={seed} pair {pair + 1}/{args.pairs} {side}"
                    try:
                        metrics = run_perfbench(trees[side], workload, seed, args.seconds)
                    except ValueError as exc:
                        print(f"perf_ab: {label}: {exc}", file=sys.stderr)
                        return 1
                    runs[workload, seed, side].append(metrics)
                    shown = ", ".join(f"{k}={fmt(v)}" for k, v in metrics.items())
                    print(f"{label}: {shown}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.base} vs the working tree, {args.pairs} pairs of {args.seconds:g} s "
          "per workload and seed")
    print(HEADER)
    for workload, seed in cases:
        rows = summarize(
            f"{workload}, seed {seed}",
            runs[workload, seed, "base"],
            runs[workload, seed, "change"],
            better,
        )
        for row in rows:
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
