"""FSM rules: the RFC 1661 transition table must be provably total.

``fsm-exhaustive`` statically extracts a ``TRANSITIONS`` dict literal
keyed by ``(StateEnum.MEMBER, EventEnum.MEMBER)`` tuples — the shape
:mod:`repro.ppp.fsm` declares — and verifies:

- every (state, event) pair of the declared enums has an entry
  (option-negotiation automata must answer *every* event in *every*
  state, per RFC 1661 §4.1);
- no duplicate or malformed keys;
- every transition target names a declared state;
- every state is reachable from ``INITIAL_STATE``.

``fsm-policy-override`` keeps the verified table authoritative for the
concrete protocols: subclasses of a ``*Fsm`` base (LCP, IPCP) may only
override *policy* hooks — options to request, how to answer a peer's
Configure-Request — never the dispatch machinery or action methods,
so LCP and IPCP inherit the proven matrix unmodified.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, LintModule, Rule, Severity, register

_Member = Tuple[str, str]  # (enum class name, member name)

#: Machinery a policy subclass must not override.
_MACHINERY = {
    "_dispatch",
    "receive",
    "_set_state",
    "open",
    "close",
    "abort",
    "_on_timeout",
    "send_packet",
}
_MACHINERY_PREFIXES = ("_act_", "_enter_", "_ack_")


def _enum_members(tree: ast.Module, class_name: str) -> Optional[List[str]]:
    """Member names of the class-level assignments in ``class_name``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        members.append(target.id)
            return members
    return None


def _as_member(node: ast.expr) -> Optional[_Member]:
    """``FsmState.CLOSED`` → ``("FsmState", "CLOSED")``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None


def _find_transitions(tree: ast.Module) -> Optional[ast.Dict]:
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "TRANSITIONS":
                if isinstance(value, ast.Dict):
                    return value
    return None


def _find_initial_state(tree: ast.Module) -> Optional[_Member]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "INITIAL_STATE":
                return _as_member(node.value)
    return None


def _transition_targets(value: ast.expr) -> Optional[List[ast.expr]]:
    """Target-state expressions of one table value.

    Accepts ``Transition("action", (S.A, S.B))`` or a bare tuple/single
    attribute; returns ``None`` when the shape is unrecognizable.
    """
    if isinstance(value, ast.Call) and len(value.args) >= 2:
        value = value.args[1]
    if isinstance(value, (ast.Tuple, ast.List)):
        return list(value.elts)
    if isinstance(value, ast.Attribute):
        return [value]
    return None


@register
class FsmExhaustiveRule(Rule):
    """The declared transition table must cover the full matrix."""

    id = "fsm-exhaustive"
    severity = Severity.ERROR
    description = (
        "TRANSITIONS must cover every (state, event) pair, target only "
        "declared states, and keep all states reachable from INITIAL_STATE"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        table = _find_transitions(module.tree)
        if table is None:
            return  # not an FSM module

        # Identify the two enums from the key tuples.
        state_enum: Optional[str] = None
        event_enum: Optional[str] = None
        entries: Dict[Tuple[str, str], ast.expr] = {}
        for key, value in zip(table.keys, table.values):
            if key is None:  # ``**other`` expansion defeats static checking
                yield self.finding(
                    module, table, "TRANSITIONS must be a literal dict (no ** merge)"
                )
                continue
            if not (isinstance(key, ast.Tuple) and len(key.elts) == 2):
                yield self.finding(
                    module, key, "transition key must be a (state, event) tuple"
                )
                continue
            state = _as_member(key.elts[0])
            event = _as_member(key.elts[1])
            if state is None or event is None:
                yield self.finding(
                    module, key, "transition key must use Enum.MEMBER attributes"
                )
                continue
            state_enum = state_enum or state[0]
            event_enum = event_enum or event[0]
            if state[0] != state_enum or event[0] != event_enum:
                yield self.finding(
                    module,
                    key,
                    f"mixed enums in key: expected ({state_enum}, {event_enum})",
                )
                continue
            pair = (state[1], event[1])
            if pair in entries:
                yield self.finding(
                    module, key, f"duplicate transition for {pair[0]} x {pair[1]}"
                )
                continue
            entries[pair] = value

        if state_enum is None or event_enum is None:
            yield self.finding(module, table, "TRANSITIONS has no parseable entries")
            return
        states = _enum_members(module.tree, state_enum)
        events = _enum_members(module.tree, event_enum)
        if states is None or events is None:
            missing = state_enum if states is None else event_enum
            yield self.finding(
                module, table, f"enum class {missing} not found in this module"
            )
            return

        # Coverage: the full state x event matrix.
        for state_name in states:
            for event_name in events:
                if (state_name, event_name) not in entries:
                    yield self.finding(
                        module,
                        table,
                        f"missing transition for ({state_enum}.{state_name}, "
                        f"{event_enum}.{event_name})",
                    )

        # Keys and targets must name declared members; collect edges.
        edges: Dict[str, Set[str]] = {name: set() for name in states}
        for (state_name, event_name), value in entries.items():
            if state_name not in states:
                yield self.finding(
                    module, value, f"undeclared state {state_enum}.{state_name} in key"
                )
                continue
            if event_name not in events:
                yield self.finding(
                    module, value, f"undeclared event {event_enum}.{event_name} in key"
                )
                continue
            targets = _transition_targets(value)
            if targets is None:
                yield self.finding(
                    module,
                    value,
                    f"unparseable targets for ({state_name}, {event_name}); use "
                    f"Transition(action, (states...))",
                )
                continue
            for target in targets:
                member = _as_member(target)
                if member is None or member[0] != state_enum:
                    yield self.finding(
                        module, target, f"target must be a {state_enum} member"
                    )
                elif member[1] not in states:
                    yield self.finding(
                        module, target, f"undeclared target state {state_enum}.{member[1]}"
                    )
                else:
                    edges[state_name].add(member[1])

        # Reachability from INITIAL_STATE (default: first declared state).
        initial = _find_initial_state(module.tree)
        start = initial[1] if initial is not None and initial[0] == state_enum else states[0]
        reached = {start}
        frontier = [start]
        while frontier:
            for target in sorted(edges.get(frontier.pop(), ())):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        for state_name in states:
            if state_name not in reached:
                yield self.finding(
                    module,
                    table,
                    f"state {state_enum}.{state_name} is unreachable from "
                    f"{state_enum}.{start}",
                )


@register
class FsmPolicyOverrideRule(Rule):
    """Protocol subclasses customize policy, never the machinery."""

    id = "fsm-policy-override"
    severity = Severity.ERROR
    description = (
        "subclasses of a *Fsm base may not override dispatch machinery "
        "or _act_* actions; the verified base table must stay total"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    base_names.append(base.id)
                elif isinstance(base, ast.Attribute):
                    base_names.append(base.attr)
            if not any(name.endswith("Fsm") for name in base_names):
                continue
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = stmt.name
                if name in _MACHINERY or name.startswith(_MACHINERY_PREFIXES):
                    yield self.finding(
                        module,
                        stmt,
                        f"{node.name} overrides FSM machinery {name!r}; subclasses "
                        f"may only override policy hooks (initial_options, "
                        f"check_peer_options, on_nak)",
                    )
