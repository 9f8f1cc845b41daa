"""Metric-name rule: telemetry names are static, lowercase, dotted.

Every metric family and span name in the stack feeds three consumers
that all assume a **closed, static vocabulary**: the OpenMetrics
exporter (byte-identical expositions need a stable family set), the
campaign merge (``MetricsRegistry.merge`` folds by name), and the
timeline reconstruction (phases are matched by span name).  A name
built at runtime — an f-string keyed on user input, a concatenation
per packet — silently explodes the family set, defeats the exporter's
determinism gate, and burns string-building time on hot paths that the
fast-path contract promises are cheap.

The rule inspects the name argument of every
``.counter(…)`` / ``.gauge(…)`` / ``.histogram(…)`` /
``.span(…)`` / ``.emit(…)`` / ``.error(…)`` call:

- string literals must match ``[a-z][a-z0-9_.]*``;
- f-strings, concatenation/``%`` formatting, and inline builders
  (``str(…)``, ``….format(…)``, ``….join(…)``) are flagged;
- plain names and attributes pass — the sanctioned pattern for
  genuinely dynamic families (per-xid counters) is to precompute the
  string once, off the hot path, and pass the variable.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from repro.lint.core import Finding, LintModule, Rule, Severity, register

#: Telemetry-emitting methods whose first argument is a metric/span name.
_NAME_METHODS = frozenset(
    {"counter", "gauge", "histogram", "span", "emit", "error"}
)

#: The static-name vocabulary: lowercase dotted, like ``umts.cmd.start``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")

#: Inline name-builder callables (flagged even though calls in general
#: pass — these always build a fresh string at the call site).
_BUILDER_FUNCS = frozenset({"str", "format"})
_BUILDER_METHODS = frozenset({"format", "join"})


def _builder_call(node: ast.Call) -> Optional[str]:
    """A short description if ``node`` builds a string inline."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _BUILDER_FUNCS:
        return f"{func.id}()"
    if isinstance(func, ast.Attribute) and func.attr in _BUILDER_METHODS:
        return f".{func.attr}()"
    return None


@register
class MetricNameRule(Rule):
    """Metric/span names must be static ``[a-z][a-z0-9_.]*`` strings."""

    id = "metric-name"
    severity = Severity.ERROR
    description = (
        "metric and span names must be static lowercase dotted string "
        "literals (or precomputed variables); no f-strings or inline "
        "string building in telemetry calls"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in _NAME_METHODS:
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Starred):
                continue
            finding = self._check_name(module, func.attr, name_arg)
            if finding is not None:
                yield finding

    def _check_name(
        self, module: LintModule, method: str, arg: ast.expr
    ) -> Optional[Finding]:
        if isinstance(arg, ast.Constant):
            if not isinstance(arg.value, str) or not _NAME_RE.match(arg.value):
                return self.finding(
                    module,
                    arg,
                    f".{method}() name {arg.value!r} is not a valid metric "
                    f"name; use lowercase dotted [a-z][a-z0-9_.]*",
                )
            return None
        if isinstance(arg, ast.JoinedStr):
            return self.finding(
                module,
                arg,
                f".{method}() name is an f-string; runtime-built metric "
                f"names explode the family set and cost allocations on "
                f"hot paths — precompute the name once and pass it",
            )
        if isinstance(arg, ast.BinOp):
            return self.finding(
                module,
                arg,
                f".{method}() name is built by concatenation/formatting "
                f"at the call site; precompute it once and pass a variable",
            )
        if isinstance(arg, ast.Call):
            builder = _builder_call(arg)
            if builder is not None:
                return self.finding(
                    module,
                    arg,
                    f".{method}() name is built inline with {builder}; "
                    f"precompute it once and pass a variable",
                )
        # Names, attributes, subscripts, and non-builder calls pass:
        # they are the precomputed-name idiom this rule pushes toward.
        return None
