"""The resource-lifecycle rule: every acquire reaches its release.

The paper's node stack is a chain of paired side effects — take the
interface lock, install the netfilter/RPDB isolation, spawn pppd, open
a trace span — and three of the last four PRs fixed *dynamically*
discovered leaks of exactly those pairs.  This rule proves the pairing
statically, over the intra-function CFG (:mod:`repro.lint.cfg`) and a
whole-program class index (the runner's project phase):

Per function (CFG checks):

- **leak-on-return** — a resource bound to a local name that never
  leaves the function can reach a normal exit without its release
  (the early-return-skips-teardown bug).  Locals that escape — stored
  on an object, returned, passed along — transfer ownership and are
  checked by the class pairing instead.
- **leak-on-raise** — *hard* protocols (the interface lock, the
  isolation rule set: transactional kernel-ish state with no owner
  object to tear it down later) must also be released on exception
  edges; an acquire whose raise path skips every release is flagged.
- **unprotected-teardown** — a function whose *every* normal path
  releases a hard resource it did not acquire (a teardown method) but
  whose exception paths skip the release: the release belongs in a
  ``finally``.  Conditional cleanup (``if self.lock.locked: ...``)
  never matches, so event handlers stay quiet.

Per project (class index, via ``summarize``/``finish``):

- **class pairing** — an acquire stored on an object (``self.pppd =
  Pppd(...)``, ``best._span = trace.span(...)``) must have a matching
  release call somewhere in the same class.
- **command pairing** — ``ip``/``iptables`` commands (run, or recorded
  beside the typed call that carries them out) that install
  kernel state (``route add ... table T``, ``rule add ... pref P``,
  ``-A CHAIN``) must have the matching removal (``route del/flush``,
  ``rule del``, ``-D``) in the same class.

Guards like ``if span is not None: span.end()`` count as the release
(the None-check collapse), matching the tracing idiom everywhere in
the tree.  Each protocol's *home* module — where the primitive itself
is implemented — is exempt, except command pairing, which is the whole
point of the isolation module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.lint.cfg import (
    EXIT_NORMAL,
    EXIT_RAISE,
    Cfg,
    FunctionDefLike,
    build_cfg,
    function_defs,
    scope_statements,
    stmt_exprs,
    teardown_skippable,
    walk_same_scope,
)
from repro.lint.core import Finding, LintModule, Rule, Severity, register


@dataclass(frozen=True)
class _Protocol:
    """One acquire/release pairing the rule understands."""

    name: str
    #: "receiver": the resource is the call receiver (``self.lock.acquire()``);
    #: "result": the resource is the call result (``span = trace.span(...)``).
    style: str
    #: Regex the receiver's last dotted component must match.
    receiver: Optional["re.Pattern[str]"]
    acquire: FrozenSet[str]
    release: FrozenSet[str]
    #: Hard resources leak kernel-ish state: exception paths must release.
    hard: bool
    #: Constructor names that count as acquires (result-style).
    constructors: FrozenSet[str]
    #: repro-package path prefix of the implementing module (exempt).
    home: Tuple[str, ...]


PROTOCOLS: Tuple[_Protocol, ...] = (
    _Protocol(
        name="interface-lock",
        style="receiver",
        receiver=re.compile(r"(^|_)lock$"),
        acquire=frozenset({"acquire"}),
        release=frozenset({"release", "force_release"}),
        hard=True,
        constructors=frozenset(),
        home=("core", "lock.py"),
    ),
    _Protocol(
        name="isolation",
        style="receiver",
        receiver=re.compile(r"isolation"),
        acquire=frozenset({"install"}),
        release=frozenset({"remove"}),
        hard=True,
        constructors=frozenset(),
        home=("core", "isolation.py"),
    ),
    _Protocol(
        name="trace-span",
        style="result",
        receiver=re.compile(r"(^|_)trace$"),
        acquire=frozenset({"span"}),
        release=frozenset({"end", "fail"}),
        hard=False,
        constructors=frozenset(),
        home=("obs",),
    ),
    _Protocol(
        name="pppd",
        style="result",
        receiver=None,
        acquire=frozenset(),
        release=frozenset({"carrier_lost", "disconnect", "stop"}),
        hard=False,
        constructors=frozenset({"Pppd"}),
        home=("ppp",),
    ),
)

#: Receivers whose ``.run(cmd)`` (or ``.record(cmd)``) calls stand for
#: commands that manipulate kernel state.
_COMMAND_RECEIVERS = frozenset({"ip", "iptables"})


def expr_key(expr: ast.AST) -> Optional[str]:
    """Dotted key of a Name/Attribute chain, else ``None``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = expr_key(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    return None


def _last(key: str) -> str:
    return key.rsplit(".", 1)[-1]


def _normalize(key: str) -> str:
    """Class-pairing key: keep ``self`` roots, wildcard other objects.

    ``best._span`` and ``ticket._span`` are the same ticket attribute
    seen through different locals, so both normalize to ``*._span``.
    """
    parts = key.split(".")
    if len(parts) == 1 or parts[0] == "self":
        return key
    return ".".join(["*"] + parts[1:])


def _module_is_home(module: LintModule, proto: _Protocol) -> bool:
    parts = module.repro_parts
    return parts is not None and parts[: len(proto.home)] == proto.home


def _match_release(call: ast.Call) -> Optional[Tuple[_Protocol, str]]:
    if not isinstance(call.func, ast.Attribute):
        return None
    receiver = expr_key(call.func.value)
    if receiver is None:
        return None
    for proto in PROTOCOLS:
        if call.func.attr not in proto.release:
            continue
        if proto.style == "receiver":
            assert proto.receiver is not None
            if not proto.receiver.search(_last(receiver)):
                continue
        return proto, receiver
    return None


def _match_acquire_call(call: ast.Call) -> Optional[Tuple[_Protocol, Optional[str]]]:
    """``(protocol, receiver key)``; receiver is ``None`` for constructors."""
    if isinstance(call.func, ast.Attribute):
        receiver = expr_key(call.func.value)
        if receiver is None:
            return None
        for proto in PROTOCOLS:
            if call.func.attr in proto.acquire and proto.receiver is not None:
                if proto.receiver.search(_last(receiver)):
                    return proto, receiver
    elif isinstance(call.func, ast.Name):
        for proto in PROTOCOLS:
            if call.func.id in proto.constructors:
                return proto, None
    return None


def _guard_key(test: ast.expr) -> Optional[str]:
    """The resource a None-guard ``if`` is checking, if any."""
    if isinstance(test, ast.Compare):
        return expr_key(test.left)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return expr_key(test.operand)
    return expr_key(test)


@dataclass
class _Acquire:
    proto: _Protocol
    key: Optional[str]  # receiver key or assignment binding; None = discarded
    stmt: ast.stmt
    call: ast.Call
    bound_local: Optional[str]  # set when the binding is a bare local name


@dataclass
class _Release:
    proto: _Protocol
    key: str
    stmt: ast.stmt


@dataclass
class _FunctionScan:
    """Acquire/release/alias inventory of one function body."""

    func: FunctionDefLike
    acquires: List[_Acquire] = field(default_factory=list)
    releases: List[_Release] = field(default_factory=list)
    discarded: List[_Acquire] = field(default_factory=list)
    #: local name -> attribute key it was read from (release evidence).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> attribute key it was stored into (ownership escape).
    attr_escapes: Dict[str, str] = field(default_factory=dict)
    #: ``if <key> ...:`` statements guarding a same-key release.
    guard_ifs: List[Tuple[str, ast.If]] = field(default_factory=list)
    #: ``ip``/``iptables`` commands: ("install" | "remove", key, text, call).
    commands: List[Tuple[str, str, str, ast.Call]] = field(default_factory=list)


class _ClassSummary(NamedTuple):
    """One class's contribution to the class-wide pairing check.

    Each stored acquire and each install carries the finding it becomes
    if no method of the class (in any file) releases or removes it.
    """

    name: str
    acquires: List[Tuple[Tuple[str, str], Finding]]  # ((protocol, key), finding)
    releases: Set[Tuple[str, str]]  # (protocol, key)
    installs: List[Tuple[str, Finding]]  # (removal key, finding)
    removes: Set[str]


def _assign_pairs(stmt: ast.Assign) -> Iterable[Tuple[ast.expr, ast.expr]]:
    """(target, value) pairs, unpacking parallel tuple assignments."""
    for target in stmt.targets:
        if (
            isinstance(target, ast.Tuple)
            and isinstance(stmt.value, ast.Tuple)
            and len(target.elts) == len(stmt.value.elts)
        ):
            yield from zip(target.elts, stmt.value.elts)
        else:
            yield target, stmt.value


def scan_function(func: FunctionDefLike) -> _FunctionScan:
    """Inventory every lifecycle-relevant site in ``func``'s own scope."""
    scan = _FunctionScan(func=func)
    for stmt in scope_statements(func):
        in_with = isinstance(stmt, (ast.With, ast.AsyncWith))
        for node in stmt_exprs(stmt):
            if not isinstance(node, ast.Call):
                continue
            released = _match_release(node)
            if released is not None:
                scan.releases.append(_Release(released[0], released[1], stmt))
            command = _match_command(node)
            if command is not None:
                scan.commands.append((*command, node))
            acquired = _match_acquire_call(node)
            if acquired is None or in_with:
                continue  # `with` acquires release via __exit__
            proto, receiver = acquired
            if proto.style == "receiver":
                assert receiver is not None
                local = receiver if "." not in receiver else None
                scan.acquires.append(_Acquire(proto, receiver, stmt, node, local))
            else:
                binding, local = _result_binding(stmt, node)
                if binding is None and local is None and _is_discarded(stmt, node):
                    scan.discarded.append(_Acquire(proto, None, stmt, node, None))
                elif binding is not None or local is not None:
                    scan.acquires.append(
                        _Acquire(proto, binding or local, stmt, node, local)
                    )
                # else: transferred (returned / passed on) — owner elsewhere
        if isinstance(stmt, ast.Assign):
            for target, value in _assign_pairs(stmt):
                if isinstance(target, ast.Name) and isinstance(value, ast.Attribute):
                    value_key = expr_key(value)
                    if value_key is not None and "." in value_key:
                        scan.aliases[target.id] = value_key
                elif isinstance(target, ast.Attribute) and isinstance(value, ast.Name):
                    target_key = expr_key(target)
                    if target_key is not None:
                        scan.attr_escapes[value.id] = target_key
        if isinstance(stmt, ast.If):
            key = _guard_key(stmt.test)
            if key is not None:
                for inner in walk_same_scope(stmt):
                    if isinstance(inner, ast.Call):
                        released = _match_release(inner)
                        if released is not None and released[1] == key:
                            scan.guard_ifs.append((key, stmt))
                            break
    return scan


def _function_scans(module: LintModule) -> Dict[FunctionDefLike, _FunctionScan]:
    """:func:`scan_function` of every def in ``module``, in walk order.

    Keyed by the def node itself; ``check`` and ``summarize`` read it
    through ``module.shared`` so each function is scanned once.
    """
    return {
        node: scan_function(node)
        for node in module.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _result_binding(
    stmt: ast.stmt, call: ast.Call
) -> Tuple[Optional[str], Optional[str]]:
    """How a result-style acquire is bound: ``(attr key, local name)``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return None, target.id
        key = expr_key(target)
        if key is not None:
            return key, None
    return None, None


def _is_discarded(stmt: ast.stmt, call: ast.Call) -> bool:
    return isinstance(stmt, ast.Expr) and stmt.value is call


#: Parents under which a Load of the resource name does not escape it:
#: receiver position, truthiness/None guards, and a bare expression.
_SAFE_PARENTS = (
    ast.Attribute,
    ast.Compare,
    ast.UnaryOp,
    ast.BoolOp,
    ast.If,
    ast.While,
    ast.IfExp,
    ast.Expr,
)


def _local_escapes(func: FunctionDefLike, name: str) -> bool:
    """Whether local ``name`` leaves the function's hands."""
    parents: Dict[int, ast.AST] = {}
    for node in walk_same_scope(func):
        for child in ast.iter_child_nodes(node):
            # lint: allow(id-ordering) -- identity map within one parse;
            # only looked up, never iterated, so order cannot leak out.
            parents.setdefault(id(child), node)
    for node in walk_same_scope(func):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ):
            parent = parents.get(id(node))  # lint: allow(id-ordering)
            if parent is None or not isinstance(parent, _SAFE_PARENTS):
                return True
            if isinstance(parent, ast.IfExp) and node is not parent.test:
                return True
    return False


def _release_nodes(
    cfg: Cfg, scan: _FunctionScan, proto: _Protocol, key: str
) -> List[int]:
    """CFG nodes that release ``key``, None-guard ``if``\\ s included."""
    stmts: List[ast.stmt] = [
        release.stmt
        for release in scan.releases
        if release.proto is proto and release.key == key
    ]
    stmts.extend(guard for guard_key, guard in scan.guard_ifs if guard_key == key)
    nodes = []
    for stmt in stmts:
        index = cfg.node_for(stmt)
        if index is not None:
            nodes.append(index)
    return nodes


def _fmt(methods: FrozenSet[str]) -> str:
    return "/".join(sorted(methods))


@register
class ResourceLifecycleRule(Rule):
    """Paired side effects must pair on every path, exceptions included."""

    id = "resource-lifecycle"
    severity = Severity.ERROR
    description = (
        "prove every acquire (lock, isolation, pppd, trace span) reaches its "
        "release on all control-flow paths, exception edges included, and "
        "that stored resources and ip/iptables installs pair class-wide"
    )

    # -- per-function CFG checks ----------------------------------------

    def check(self, module: LintModule) -> Iterable[Finding]:
        active = [p for p in PROTOCOLS if not _module_is_home(module, p)]
        if not active:
            return
        for func, scan in module.shared(_function_scans).items():
            relevant = (
                any(a.proto in active for a in scan.acquires)
                or any(a.proto in active for a in scan.discarded)
                or any(r.proto in active and r.proto.hard for r in scan.releases)
            )
            if not relevant:
                continue
            cfg = build_cfg(func)
            for acquire in scan.discarded:
                if acquire.proto in active:
                    yield self.finding(
                        module,
                        acquire.call,
                        f"{acquire.proto.name} acquired and discarded; bind the "
                        f"result so {_fmt(acquire.proto.release)} can be called",
                    )
            for acquire in scan.acquires:
                if acquire.proto not in active or acquire.key is None:
                    continue
                yield from self._check_acquire(module, cfg, scan, acquire)
            yield from self._check_teardowns(module, cfg, scan, active)

    def _check_acquire(
        self, module: LintModule, cfg: Cfg, scan: _FunctionScan, acquire: _Acquire
    ) -> Iterable[Finding]:
        assert acquire.key is not None
        index = cfg.node_for(acquire.stmt)
        if index is None:
            return
        stops = _release_nodes(cfg, scan, acquire.proto, acquire.key)
        local_owned = (
            acquire.bound_local is not None
            and acquire.bound_local not in scan.attr_escapes
            and not _local_escapes(scan.func, acquire.bound_local)
        )
        if local_owned:
            after = cfg.reachable_after(index, stops)
            if EXIT_NORMAL in after:
                yield self.finding(
                    module,
                    acquire.call,
                    f"{acquire.proto.name} '{acquire.key}' can reach a normal "
                    f"exit without {_fmt(acquire.proto.release)}; an early "
                    f"return is skipping the teardown",
                )
        if acquire.proto.hard:
            after = cfg.reachable_after(index, stops)
            if EXIT_RAISE in after:
                yield self.finding(
                    module,
                    acquire.call,
                    f"{acquire.proto.name} '{acquire.key}' can leak on an "
                    f"exception path; call {_fmt(acquire.proto.release)} in a "
                    f"finally (or except + re-raise)",
                )

    def _check_teardowns(
        self,
        module: LintModule,
        cfg: Cfg,
        scan: _FunctionScan,
        active: List[_Protocol],
    ) -> Iterable[Finding]:
        acquired_keys = {(a.proto.name, a.key) for a in scan.acquires}
        seen: Set[Tuple[str, str]] = set()
        for release in scan.releases:
            proto = release.proto
            if (
                proto not in active
                or not proto.hard
                or (proto.name, release.key) in acquired_keys
                or (proto.name, release.key) in seen
            ):
                continue
            seen.add((proto.name, release.key))
            stops = _release_nodes(cfg, scan, proto, release.key)
            if teardown_skippable(cfg, stops):
                anchor = min(
                    (
                        r.stmt
                        for r in scan.releases
                        if r.proto is proto and r.key == release.key
                    ),
                    key=lambda s: s.lineno,
                )
                yield self.finding(
                    module,
                    anchor,
                    f"release of {proto.name} '{release.key}' can be skipped "
                    f"by an exception path; move it into a finally",
                )

    # -- project phase: class-wide pairing ------------------------------

    def summarize(self, module: LintModule) -> Optional[List[_ClassSummary]]:
        scans = module.shared(_function_scans)
        classes = [
            self._summarize_class(module, cls, scans)
            for cls in module.nodes
            if isinstance(cls, ast.ClassDef)
        ]
        return classes or None

    def _summarize_class(
        self,
        module: LintModule,
        cls: ast.ClassDef,
        scans: Dict[FunctionDefLike, _FunctionScan],
    ) -> _ClassSummary:
        entry = _ClassSummary(cls.name, [], set(), [], set())
        for func in function_defs(cls):
            scan = scans[func]
            for acquire in scan.acquires:
                if _module_is_home(module, acquire.proto) or acquire.key is None:
                    continue
                key = acquire.key
                if acquire.bound_local is not None:
                    if acquire.bound_local in scan.attr_escapes:
                        key = scan.attr_escapes[acquire.bound_local]
                    else:
                        continue  # function-local ownership: CFG checks cover it
                key = _normalize(key)
                proto = acquire.proto
                finding = self.finding(
                    module,
                    acquire.call,
                    f"{proto.name} stored into '{key}' has no matching "
                    f"release ({_fmt(proto.release)}) anywhere in class {cls.name}",
                )
                entry.acquires.append(((proto.name, key), finding))
            for release in scan.releases:
                if _module_is_home(module, release.proto):
                    continue
                key = scan.aliases.get(release.key, release.key)
                entry.releases.add((release.proto.name, _normalize(key)))
            for kind, key, text, call in scan.commands:
                if kind == "remove":
                    entry.removes.add(key)
                    continue
                finding = self.finding(
                    module,
                    call,
                    f"'{text}' installs kernel state with no matching "
                    f"removal command in class {cls.name}",
                )
                entry.installs.append((key, finding))
        return entry

    def finish(
        self, contributions: List[Tuple[str, List[_ClassSummary]]]
    ) -> Iterable[Finding]:
        by_class: Dict[str, List[_ClassSummary]] = {}
        for _path, classes in contributions:
            for entry in classes:
                by_class.setdefault(entry.name, []).append(entry)
        for cls in sorted(by_class):
            entries = by_class[cls]
            releases = set().union(*(entry.releases for entry in entries))
            removes = set().union(*(entry.removes for entry in entries))
            for entry in entries:
                for pair, finding in entry.acquires:
                    if pair not in releases:
                        yield finding
            for entry in entries:
                for key, finding in entry.installs:
                    if key not in removes:
                        yield finding


def _render_command(arg: ast.expr) -> Optional[str]:
    """Best-effort text of a command argument; f-string holes kept."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts: List[str] = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            elif isinstance(piece, ast.FormattedValue):
                key = expr_key(piece.value)
                if key is None and isinstance(piece.value, ast.Constant):
                    key = str(piece.value.value)
                parts.append("{" + (key if key is not None else "*") + "}")
        return "".join(parts)
    return None


def _token_after(tokens: List[str], word: str) -> Optional[str]:
    try:
        index = tokens.index(word)
    except ValueError:
        return None
    return tokens[index + 1] if index + 1 < len(tokens) else None


def _match_command(call: ast.Call) -> Optional[Tuple[str, str, str]]:
    """``(kind, pairing key, text)`` of an ``ip``/``iptables`` ``.run()``,
    or of a ``.record()`` of the line a typed call stands for."""
    if (
        not isinstance(call.func, ast.Attribute)
        or call.func.attr not in ("run", "record")
        or not call.args
    ):
        return None
    receiver = expr_key(call.func.value)
    if receiver is None or _last(receiver) not in _COMMAND_RECEIVERS:
        return None
    text = _render_command(call.args[0])
    if text is None:
        return None
    parsed = _parse_command(_last(receiver), text)
    return None if parsed is None else (*parsed, text)


def _parse_command(receiver: str, text: str) -> Optional[Tuple[str, str]]:
    """Classify a rendered command: ``("install" | "remove", pairing key)``.

    Pairing keys are deliberately coarse — the table number, the rule
    preference, the chain name — so an install rendered with a local
    variable still matches a removal rendered with the same value via
    ``self``.
    """
    tokens = text.split()
    if not tokens:
        return None
    if receiver == "iptables":
        table = _token_after(tokens, "-t") or "filter"
        for flag in ("-A", "-I"):
            chain = _token_after(tokens, flag)
            if chain is not None:
                return "install", f"ipt:{table}:{chain}"
        chain = _token_after(tokens, "-D")
        if chain is not None:
            return "remove", f"ipt:{table}:{chain}"
        return None
    if tokens[0] == "route":
        table = _token_after(tokens, "table")
        if table is None:
            return None
        if tokens[1] == "add":
            return "install", f"route:{table}"
        if tokens[1] in ("del", "flush"):
            return "remove", f"route:{table}"
        return None
    if tokens[0] == "rule":
        pref = _token_after(tokens, "pref")
        if pref is None:
            return None
        if tokens[1] == "add":
            return "install", f"rule:{pref}"
        if tokens[1] == "del":
            return "remove", f"rule:{pref}"
    return None
