"""The campaign runner's wall-clock proof: sharding actually pays.

The 17-scenario chaos suite alone finishes in ~70 ms — too small for
pool startup to amortize — so each job batches ``REPEATS`` identical
runs (which doubles as a per-repeat digest-identity check inside every
worker).  The serial and sharded campaigns must produce the same
digest, the digest must match the committed ``BENCH_campaign.json``
baseline, and with four real cores the sharded run must be at least
2x faster.  Below that the baseline records why the speedup gate was
skipped instead of a speedup.  Set ``REPRO_UPDATE_BASELINES=1`` to
rewrite the baseline.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.parallel import chaos_jobs, run_campaign

BASELINE = Path(__file__).parents[1] / "BENCH_campaign.json"

#: Batched repeats per scenario: ~20 x 70 ms = a campaign worth sharding.
REPEATS = 20
TARGET_JOBS = 4
TARGET_SPEEDUP = 2.0


def machine_metadata() -> Dict[str, str]:
    """The environment a measurement was taken in."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def speedup_gate_skip(jobs: int) -> Optional[str]:
    """Why the speedup gate cannot run here, or ``None`` when it can."""
    if multiprocessing.cpu_count() < TARGET_JOBS:
        return f"skipped: fewer than {TARGET_JOBS} cores"
    if jobs < TARGET_JOBS:
        return f"skipped: fewer than {TARGET_JOBS} jobs"
    return None


def test_sharded_campaign_is_faster_and_identical(repro_jobs):
    jobs = chaos_jobs(repeats=REPEATS)
    assert len(jobs) == 17
    serial = run_campaign(jobs, workers=1)
    sharded = run_campaign(jobs, workers=repro_jobs)
    speedup = serial.wall_s / sharded.wall_s
    print(f"\n[bench] chaos campaign x{REPEATS}: "
          f"-j1 {serial.wall_s:.2f}s, -j{repro_jobs} {sharded.wall_s:.2f}s "
          f"({speedup:.2f}x), digest {serial.digest[:16]}")

    assert sharded.digest == serial.digest
    assert all(result.stable["ok"] for result in serial.results)

    skip = speedup_gate_skip(repro_jobs)
    payload = {
        "schema": 1,
        "workload": f"chaos campaign, {len(jobs)} scenarios x {REPEATS} repeats",
        "jobs": repro_jobs,
        "cpus": multiprocessing.cpu_count(),
        "digest": serial.digest,
        "serial_wall_s": round(serial.wall_s, 3),
        "sharded_wall_s": round(sharded.wall_s, 3),
        "speedup": skip or round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "machine": machine_metadata(),
    }
    if os.environ.get("REPRO_UPDATE_BASELINES"):
        BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[bench] wrote {BASELINE}")
        return

    baseline = json.loads(BASELINE.read_text())
    # The digest is a pure function of the scenario payloads: any
    # machine, any -j, any day must reproduce the committed value.
    assert serial.digest == baseline["digest"]

    if skip is not None:
        pytest.skip(f"speedup gate {skip}")
    assert speedup >= TARGET_SPEEDUP, (
        f"chaos campaign at -j{repro_jobs} only {speedup:.2f}x faster than "
        f"-j1 (target {TARGET_SPEEDUP}x; baseline recorded "
        f"speedup {baseline['speedup']})"
    )
