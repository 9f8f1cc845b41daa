"""The lease-protocol rule: FleetController leases used correctly.

PR 7's ``FleetController`` arbitrates every node's UMTS interface with
an async protocol — ``request()`` returns a :class:`LeaseTicket`, its
``outcome`` signal fires ``("granted" | "failed", detail)``, and a
granted holder may be revoked at any time via ``ticket.revoked``.  Two
of the protocol's obligations were learned the hard way and are now
checked statically at every call site:

- **Outcomes are handled exhaustively.**  The ticket must be awaited
  (``yield ticket.outcome``), the status destructured and compared
  only against the real outcome literals, and the ``"failed"`` arm
  handled explicitly — a waiter that only looks for ``"granted"``
  wedges when a dead node fails its queue.
- **Subscribe before you yield** (PR 7's lost-wakeup fix).  Once
  granted, the holder must subscribe to ``ticket.revoked`` *before*
  its next switch point: a revocation arriving while the holder is off
  in ``umts start`` with no subscription is silently lost, and the
  controller then waits forever for a teardown that never comes.
- **Release survives exceptions.**  A teardown path whose every
  normal exit releases the lease, but whose exception path can skip
  ``controller.release(ticket)``, leaks the node for the rest of the
  campaign; the release belongs in a ``finally``.  (Conditional
  releases — an early-bailout arm — are not teardown and stay quiet.)

``fleet/controller.py`` itself — the protocol's implementation — is
exempt.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Set, Tuple

from repro.lint.cfg import (
    FunctionDefLike,
    build_cfg,
    function_defs,
    is_switch_point,
    scope_statements,
    stmt_exprs,
    teardown_skippable,
    walk_same_scope,
)
from repro.lint.core import Finding, LintModule, Rule, Severity, register
from repro.lint.rules.lifecycle import _local_escapes, expr_key

#: The protocol's own implementation, where the rule does not apply.
_LEASE_HOME: Tuple[str, ...] = ("fleet", "controller.py")

#: Receivers whose ``.request()`` / ``.release()`` are lease calls.
_CONTROLLER = re.compile(r"controller")

#: The only statuses a ticket outcome ever fires.
_OUTCOMES = frozenset({"granted", "failed"})


def _controller_call(call: ast.Call, method: str) -> bool:
    if not isinstance(call.func, ast.Attribute) or call.func.attr != method:
        return False
    receiver = expr_key(call.func.value)
    if receiver is None:
        return False
    return bool(_CONTROLLER.search(receiver.rsplit(".", 1)[-1]))


def _find_requests(
    func: FunctionDefLike,
) -> Tuple[List[Tuple[ast.stmt, ast.Call, Optional[str]]], List[ast.Call]]:
    """``(stmt, call, bound ticket name)`` requests, plus discarded ones."""
    bound: List[Tuple[ast.stmt, ast.Call, Optional[str]]] = []
    discarded: List[ast.Call] = []
    for stmt in scope_statements(func):
        for node in stmt_exprs(stmt):
            if isinstance(node, ast.Call) and _controller_call(node, "request"):
                if isinstance(stmt, ast.Expr) and stmt.value is node:
                    discarded.append(node)
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    bound.append((stmt, node, stmt.targets[0].id))
                else:
                    bound.append((stmt, node, None))
    return bound, discarded


def _outcome_stmt(func: FunctionDefLike, ticket: str) -> Optional[ast.stmt]:
    """The statement performing ``yield <ticket>.outcome``."""
    for stmt in scope_statements(func):
        for node in stmt_exprs(stmt):
            if (
                isinstance(node, (ast.Yield, ast.Await))
                and node.value is not None
                and expr_key(node.value) == f"{ticket}.outcome"
            ):
                return stmt
    return None


def _status_variable(stmt: ast.stmt) -> Tuple[Optional[str], bool]:
    """``(status name, discarded)`` from the outcome-yield statement."""
    if isinstance(stmt, ast.Expr):
        return None, True
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Tuple) and target.elts:
            first = target.elts[0]
            if isinstance(first, ast.Name):
                return first.id, False
    return None, False


def _status_literals(func: FunctionDefLike, status: str) -> Set[str]:
    """String literals the status variable is compared against."""
    literals: Set[str] = set()
    for node in walk_same_scope(func):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(
            isinstance(side, ast.Name) and side.id == status for side in sides
        ):
            continue
        for side in sides:
            if isinstance(side, ast.Constant) and isinstance(side.value, str):
                literals.add(side.value)
            elif isinstance(side, (ast.Tuple, ast.Set, ast.List)):
                for element in side.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        literals.add(element.value)
    return literals


def _first_wait_line(func: FunctionDefLike, ticket: str) -> Optional[int]:
    """Line of the first ``<ticket>.revoked.wait(...)`` call."""
    best: Optional[int] = None
    for stmt in scope_statements(func):
        for node in stmt_exprs(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
                and expr_key(node.func.value) == f"{ticket}.revoked"
            ):
                if best is None or stmt.lineno < best:
                    best = stmt.lineno
    return best


def _first_switch_after(func: FunctionDefLike, line: int) -> Optional[ast.stmt]:
    """The first switch-point statement strictly after ``line``."""
    best: Optional[ast.stmt] = None
    for stmt in scope_statements(func):
        if stmt.lineno <= line or not is_switch_point(stmt):
            continue
        if best is None or stmt.lineno < best.lineno:
            best = stmt
    return best


@register
class LeaseProtocolRule(Rule):
    """LeaseTicket outcomes handled exhaustively; subscribe before yield."""

    id = "lease-protocol"
    severity = Severity.ERROR
    description = (
        "check FleetController lease sites: outcome awaited and destructured, "
        "status literals exhaustive with 'failed' handled, ticket.revoked "
        "subscribed before the next yield (the lost-wakeup fix), and "
        "controller.release protected from exception paths"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        parts = module.repro_parts
        if parts is not None and parts[: len(_LEASE_HOME)] == _LEASE_HOME:
            return
        # Only functions calling controller.request/release have lease
        # sites; most modules have none, so skip their per-function scans.
        if not any(
            isinstance(node, ast.Call)
            and (_controller_call(node, "request") or _controller_call(node, "release"))
            for node in module.nodes
        ):
            return
        for func in function_defs(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self, module: LintModule, func: FunctionDefLike
    ) -> Iterable[Finding]:
        requests, discarded = _find_requests(func)
        for call in discarded:
            yield self.finding(
                module,
                call,
                "lease ticket discarded: bind the request() result so the "
                "outcome can be awaited and the lease released",
            )
        for stmt, call, ticket in requests:
            yield from self._check_request(module, func, stmt, call, ticket)
        yield from self._check_release_teardown(module, func)

    def _check_request(
        self,
        module: LintModule,
        func: FunctionDefLike,
        stmt: ast.stmt,
        call: ast.Call,
        ticket: Optional[str],
    ) -> Iterable[Finding]:
        if ticket is None:
            return  # bound to something we cannot track (attribute, tuple)
        outcome = _outcome_stmt(func, ticket)
        if outcome is None:
            if not _local_escapes(func, ticket):
                yield self.finding(
                    module,
                    call,
                    f"LeaseTicket '{ticket}' outcome is never awaited "
                    f"(yield {ticket}.outcome); the grant decision is lost",
                )
            return  # ticket handed to another owner: checked there
        status, ignored = _status_variable(outcome)
        if ignored:
            yield self.finding(
                module,
                outcome,
                f"lease outcome ignored: bind (status, detail) from "
                f"yield {ticket}.outcome and handle 'failed'",
            )
            return
        if status is not None:
            literals = _status_literals(func, status)
            for literal in sorted(literals - _OUTCOMES):
                yield self.finding(
                    module,
                    outcome,
                    f"unknown lease status literal {literal!r}: outcomes are "
                    f"'granted' and 'failed' only",
                )
            if not literals:
                yield self.finding(
                    module,
                    outcome,
                    f"lease status '{status}' is never checked; a failed "
                    f"grant must not be treated as granted",
                )
            elif "failed" not in literals:
                yield self.finding(
                    module,
                    outcome,
                    "'failed' lease outcome unhandled: a dead node fails its "
                    "queue and the waiter must cope",
                )
        wait_line = _first_wait_line(func, ticket)
        next_switch = _first_switch_after(func, outcome.lineno)
        if next_switch is None:
            return  # no further switch points: no window to lose a wakeup in
        if wait_line is None:
            yield self.finding(
                module,
                outcome,
                f"{ticket}.revoked is never subscribed: a revocation while "
                f"this holder is mid-operation is silently lost",
            )
        elif next_switch.lineno < wait_line:
            yield self.finding(
                module,
                next_switch,
                f"lost-wakeup window: this yields before "
                f"{ticket}.revoked.wait(...) on line {wait_line}; subscribe "
                f"before the first yield after the grant",
            )

    def _check_release_teardown(
        self, module: LintModule, func: FunctionDefLike
    ) -> Iterable[Finding]:
        release_stmts: List[ast.stmt] = []
        for stmt in scope_statements(func):
            for node in stmt_exprs(stmt):
                if isinstance(node, ast.Call) and _controller_call(node, "release"):
                    release_stmts.append(stmt)
                    break
        if not release_stmts:
            return
        cfg = build_cfg(func)
        stops = [
            index
            for index in (cfg.node_for(stmt) for stmt in release_stmts)
            if index is not None
        ]
        if teardown_skippable(cfg, stops):
            anchor = min(release_stmts, key=lambda s: s.lineno)
            yield self.finding(
                module,
                anchor,
                "controller.release(...) can be skipped by an exception "
                "path; move it into a finally so a revoked or killed "
                "attempt still frees the lease",
            )

