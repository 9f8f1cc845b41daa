"""repro.lint — domain-aware static analysis for the reproduction.

Seven rule families guard the properties the reproduction depends on:

- **determinism** (:mod:`repro.lint.rules.determinism`) — no wall-clock
  reads, no unseeded or module-level randomness, no iteration-order
  dependence on sets or ``id()``; the golden run digests in
  :mod:`repro.bench.determinism` are only meaningful if every byte of
  simulated output is a pure function of the experiment seed;
- **typing** (:mod:`repro.lint.rules.typing_defs`) — the ``sim``,
  ``ppp``, ``vsys``, ``bench`` and ``parallel`` packages require fully
  annotated defs, mirroring the mypy ``disallow_untyped_defs`` escalation in
  ``pyproject.toml`` so violations surface even where mypy is absent;
- **retry policy** (:mod:`repro.lint.rules.retry`) — no ``time.sleep``
  and no hand-rolled ``range()``-based retry loops; every retry goes
  through :class:`repro.core.retry.RetryPolicy` so attempt budgets and
  backoff schedules are declared and seed-deterministic;
- **worker safety** (:mod:`repro.lint.rules.worker_safety`) — code in
  :mod:`repro.parallel` must not mutate module-level state from inside
  functions; campaign jobs are pure functions of their payload, which
  is what makes ``-j 1`` and ``-j N`` results bit-identical;
- **metric names** (:mod:`repro.lint.rules.metric_name`) — metric and
  span names are static lowercase dotted literals (or precomputed
  variables); runtime-built names would explode the OpenMetrics family
  set and defeat the exporter's byte-identity gate;
- **resource lifecycle** (:mod:`repro.lint.rules.lifecycle`) — every
  acquire (interface lock, isolation install, pppd spawn, trace span)
  reaches its matching release on all control-flow paths, exception
  edges included, proven over the intra-function CFG
  (:mod:`repro.lint.cfg`); stored resources and ``ip``/``iptables``
  installs must pair class-wide (the runner's project phase);
- **lease protocol** (:mod:`repro.lint.rules.lease`) — FleetController
  lease sites await and destructure the ticket outcome, handle
  ``"failed"`` explicitly, subscribe to ``ticket.revoked`` before the
  next yield (PR 7's lost-wakeup fix), and keep
  ``controller.release`` on every exception path.

The runner (:mod:`repro.lint.runner`) is one in-process pass: each
module's tree is walked once and the rules share that walk, so there
is no sharding and no result cache.

Findings are suppressed per line with ``# lint: allow(<rule-id>)``
pragmas (see :func:`repro.lint.core.parse_pragmas`).  The CLI entry is
``python -m repro lint``; see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from repro.lint.core import (
    RULES,
    Finding,
    LintModule,
    Rule,
    Severity,
    UnknownRuleError,
    register,
)
from repro.lint.report import human_report, jsonl_report
from repro.lint.runner import iter_python_files, lint_paths

# Importing the rule modules registers every rule in RULES.
from repro.lint.rules import (  # noqa: F401  (registration)
    determinism,
    lease,
    lifecycle,
    metric_name,
    retry,
    typing_defs,
    worker_safety,
)

__all__ = [
    "Finding",
    "LintModule",
    "RULES",
    "Rule",
    "Severity",
    "UnknownRuleError",
    "human_report",
    "iter_python_files",
    "jsonl_report",
    "lint_paths",
    "register",
]
