"""repro.bench — stable digests of simulated outputs.

:mod:`repro.bench.determinism` folds every observable output of a
characterization run into one SHA-256, so "bit-identical results" is a
single string comparison.  The golden-digest tests and the repository
benchmark (``perfbench/``) both check runs against these digests.
"""

from __future__ import annotations

from repro.bench.determinism import characterization_digest, run_digest

__all__ = [
    "characterization_digest",
    "run_digest",
]
