"""The retry-policy rule: one sanctioned way to try again.

Recovery behaviour must be auditable and seed-deterministic, so every
retry loop goes through :class:`repro.core.retry.RetryPolicy` — its
attempt budget bounds the work, its backoff schedule is explicit, and
its jitter draws come from named RNG streams.  This rule rejects the
two ad-hoc shapes that creep in instead:

- ``time.sleep(...)`` — wall-clock waiting has no place in simulation
  code at all (delays are ``yield``\\ ed to the engine), and in harness
  code it hides a backoff schedule nobody declared;
- ``for ... in range(...)`` loops whose target variable is named like
  an attempt counter (``attempt``, ``retry``, ``tries``, ``redial``,
  ``backoff``) — the hand-rolled retry loop.  Iterate
  ``policy.attempts()`` instead.

``core/retry.py`` itself is exempt: it is the one place the schedule
arithmetic lives.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Tuple

from repro.lint.core import Finding, LintModule, Rule, Severity, register
from repro.lint.rules.determinism import _resolved_calls

#: The one module allowed to spell out backoff arithmetic.
_RETRY_HOME: Tuple[str, ...] = ("core", "retry.py")

#: Loop-variable names that mark a ``range()`` loop as a retry loop.
_ATTEMPT_NAME = re.compile(r"^_*(attempt|retr[yi]\w*|tries|redial\w*|backoff\w*)s?$", re.IGNORECASE)


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def _loop_targets(target: ast.expr) -> Iterable[ast.Name]:
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _loop_targets(element)


@register
class RetryPolicyRule(Rule):
    """Retries go through ``repro.core.retry.RetryPolicy``."""

    id = "retry-policy"
    severity = Severity.ERROR
    description = (
        "forbid time.sleep() and hand-rolled range()-based retry loops; "
        "drive attempts through repro.core.retry.RetryPolicy"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if module.repro_parts == _RETRY_HOME:
            return
        for node, origin in module.shared(_resolved_calls):
            if origin == "time.sleep":
                yield self.finding(
                    module,
                    node,
                    "time.sleep() waits on the wall clock; yield a delay to "
                    "the simulator, paced by a RetryPolicy",
                )
        for node in module.nodes:
            if not isinstance(node, ast.For) or not _is_range_call(node.iter):
                continue
            for name in _loop_targets(node.target):
                if _ATTEMPT_NAME.match(name.id):
                    yield self.finding(
                        module,
                        node,
                        f"range() loop over {name.id!r} is a hand-rolled retry "
                        f"loop; iterate RetryPolicy.attempts() so the budget "
                        f"and backoff are declared",
                    )
                    break
