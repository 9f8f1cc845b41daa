"""Shared fixtures for the figure benches.

The paper's two workloads are simulated once per pytest session at
full length (120 s, as in §3.1) on both paths; the per-figure benches
time the decode/regeneration step against those cached runs and check
the figure's shape, printing paper-vs-measured rows.  One bench times
the full end-to-end simulation itself.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Tuple

import pytest

#: Seed and duration of the headline characterization runs (§3.1).
BENCH_SEED = 3
BENCH_DURATION = 120.0


def time_once(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``fn`` once under ``perf_counter``; return (seconds, value)."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def characterization_pair(kind: str, seed: int = BENCH_SEED,
                          duration: float = BENCH_DURATION) -> Dict[str, object]:
    """Run one workload on both paths (UMTS and Ethernet)."""
    from repro import PATH_ETHERNET, PATH_UMTS, cbr, run_characterization, voip_g711

    spec_fn = {"voip": voip_g711, "cbr": cbr}[kind]
    return {
        path: run_characterization(spec_fn(duration=duration), path=path, seed=seed)
        for path in (PATH_UMTS, PATH_ETHERNET)
    }


def pytest_addoption(parser):
    parser.addoption(
        "--repro-jobs",
        type=int,
        default=int(os.environ.get("REPRO_JOBS", "4")),
        help="worker processes for campaign benches (env REPRO_JOBS)",
    )


@pytest.fixture(scope="session")
def repro_jobs(pytestconfig):
    """The -j the campaign benches shard across."""
    return pytestconfig.getoption("--repro-jobs")


def _session_pair(kind: str):
    elapsed, runs = time_once(lambda: characterization_pair(kind))
    print(f"\n[bench] {kind}_characterization pair: {elapsed * 1000:.1f} ms "
          f"(seed {BENCH_SEED}, {BENCH_DURATION:.0f}s per path)")
    return runs


@pytest.fixture(scope="session")
def voip_runs():
    """Figures 1-3: the 72 kbit/s VoIP-like flow on both paths."""
    return _session_pair("voip")


@pytest.fixture(scope="session")
def saturation_runs():
    """Figures 4-7: the 1 Mbit/s CBR flow on both paths."""
    return _session_pair("cbr")


def print_figure(title: str, unit: str, scale: float, umts_series, eth_series) -> None:
    """Print a figure's data as 10-second rows for both paths."""
    print(f"\n=== {title} ===")
    print(f"{'time':>6} {'UMTS-to-Ethernet':>18} {'Ethernet-to-Ethernet':>22}   [{unit}]")
    t = 0.0
    while t < BENCH_DURATION:
        u = umts_series.between(t, t + 10.0).mean() * scale
        e = eth_series.between(t, t + 10.0).mean() * scale
        print(f"{t:5.0f}s {u:18.2f} {e:22.2f}")
        t += 10.0
