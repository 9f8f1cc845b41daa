"""Determinism rules: the simulation must be a pure function of seed.

The golden digests in :mod:`repro.bench.determinism` pin bit-identical
outputs per seed; anything that reads the wall clock, draws from an
unseeded RNG, or depends on allocation/iteration order silently breaks
that contract.  ``sim/rng.py`` is the one sanctioned construction site
for ``random.Random`` (the named-stream family) and is exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.core import Finding, LintModule, Rule, Severity, register

#: Wall-clock / ambient-entropy calls that leak real time into a run.
#: ``time.perf_counter`` is deliberately absent: measuring how long a
#: computation took is fine, feeding the measurement back in is not.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Files allowed to construct ``random.Random`` directly.
_RNG_HOME = ("sim", "rng.py")


def _build_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local binding names to the dotted origin they import.

    ``import time`` → ``{"time": "time"}``; ``import random as _random``
    → ``{"_random": "random"}``; ``from datetime import datetime`` →
    ``{"datetime": "datetime.datetime"}``.
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to its imported dotted origin."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _resolved_calls(module: LintModule) -> List[Tuple[ast.Call, str]]:
    """Every call whose callee resolves to an import, with its origin.

    Rules read it through ``module.shared`` so it runs once per module.
    """
    aliases = _build_aliases(module.nodes)
    pairs = []
    for node in module.nodes:
        if isinstance(node, ast.Call):
            origin = _resolve(node.func, aliases)
            if origin is not None:
                pairs.append((node, origin))
    return pairs


def _in_rng_home(module: LintModule) -> bool:
    parts = module.repro_parts
    return parts is not None and parts == _RNG_HOME


@register
class WallClockRule(Rule):
    """No wall-clock or ambient-entropy reads in simulation code."""

    id = "wall-clock"
    severity = Severity.ERROR
    description = (
        "forbid time.time()/datetime.now()/os.urandom()-style reads; "
        "simulated time comes from the engine, entropy from the seed"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node, origin in module.shared(_resolved_calls):
            if origin in _WALLCLOCK:
                yield self.finding(
                    module,
                    node,
                    f"{origin}() reads ambient time/entropy; derive it from "
                    f"the simulation clock or the experiment seed",
                )


@register
class UnseededRandomRule(Rule):
    """No module-level or OS-entropy randomness."""

    id = "unseeded-random"
    severity = Severity.ERROR
    description = (
        "forbid module-level random.* calls, random.Random() without a "
        "seed, and random.SystemRandom; use sim.rng named streams"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if _in_rng_home(module):
            return
        for node, origin in module.shared(_resolved_calls):
            if origin == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed draws from OS entropy; "
                        "seed it or use RandomStreams.stream(name)",
                    )
            elif origin == "random.SystemRandom":
                yield self.finding(
                    module, node, "random.SystemRandom is OS entropy by design"
                )
            elif origin.startswith("random.") and origin.count(".") == 1:
                yield self.finding(
                    module,
                    node,
                    f"{origin}() uses the shared module-level RNG; draw from a "
                    f"RandomStreams named stream instead",
                )


@register
class DirectRngRule(Rule):
    """``random.Random(seed)`` belongs in sim/rng.py only."""

    id = "direct-rng"
    severity = Severity.ERROR
    description = (
        "forbid direct random.Random(seed) construction outside "
        "sim/rng.py; named streams keep seeds independent and stable"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        if _in_rng_home(module):
            return
        for node, origin in module.shared(_resolved_calls):
            if origin == "random.Random" and (node.args or node.keywords):
                yield self.finding(
                    module,
                    node,
                    "construct RNGs via RandomStreams.stream(name) so streams "
                    "stay independent per component",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class SetIterationRule(Rule):
    """Iterating a set feeds hash-order into the event sequence."""

    id = "set-iteration"
    severity = Severity.ERROR
    description = (
        "forbid iterating directly over set expressions (for/comprehension/"
        "list()/tuple()/join); sort first or use a list/dict"
    )

    _MESSAGE = (
        "set iteration order is hash-dependent; iterate a sorted() copy "
        "or an ordered container"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(module, node.iter, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield self.finding(module, generator.iter, self._MESSAGE)
            elif isinstance(node, ast.Call):
                func = node.func
                seq_call = isinstance(func, ast.Name) and func.id in {"list", "tuple"}
                join_call = isinstance(func, ast.Attribute) and func.attr == "join"
                if (seq_call or join_call) and node.args and _is_set_expr(node.args[0]):
                    yield self.finding(module, node.args[0], self._MESSAGE)


@register
class IdOrderingRule(Rule):
    """``id()`` values are allocation addresses — never order by them."""

    id = "id-ordering"
    severity = Severity.ERROR
    description = (
        "forbid id()-derived values and key=id sorts; object identity "
        "varies run to run"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                yield self.finding(
                    module,
                    node,
                    "id() is an allocation address and differs across runs; "
                    "use a stable key (name, sequence number)",
                )
            for keyword in node.keywords:
                if (
                    keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"
                ):
                    yield self.finding(
                        module, keyword.value, "key=id orders by allocation address"
                    )
