"""Stable digests of simulated outputs.

The optimization passes this subsystem gates (engine fast path, RNG
samplers) must never change *what* the simulation computes, only how
fast.  :func:`run_digest` folds everything a characterization run
produces — the sender/receiver packet logs, the RTT records, the
end-of-run summary, all four figure series, and the RAB grade
history — into one SHA-256, so "bit-identical results" is a single
string comparison.  ``repr`` of Python floats is
shortest-round-trip, and every float total in these outputs is added
left to right by :func:`repro.sim.monitor.window_fold` or
:func:`repro.sim.monitor.ordered_sum` rather than builtin ``sum()``
(compensated since CPython 3.12), so the digests are the same across
platforms and the CPython versions CI runs.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Any


def run_digest(result: Any) -> str:
    """SHA-256 over every observable output of one characterization run."""
    h = hashlib.sha256()
    log = result.sender.log
    # Each record's plain-tuple repr, in log order.
    received = result.receiver.log_for(log.flow_id).received
    for text in map(tuple.__repr__, chain(log.sent, log.rtt, received)):
        h.update(text.encode())
    h.update(repr(tuple(result.summary)).encode())
    for series in (
        result.bitrate_kbps(),
        result.jitter_series(),
        result.loss_series(),
        result.rtt_series(),
    ):
        h.update(repr(series.times).encode())
        h.update(repr(series.values).encode())
    if result.rab_history is not None:
        h.update(repr(result.rab_history.as_pairs()).encode())
    return h.hexdigest()


def characterization_digest(kind: str, path: str, seed: int = 3,
                            duration: float = 120.0) -> str:
    """Run one workload on one path and digest its outputs."""
    from repro import cbr, run_characterization, voip_g711

    spec_fn = {"voip": voip_g711, "cbr": cbr}[kind]
    return run_digest(run_characterization(spec_fn(duration=duration), path=path, seed=seed))
