"""Lint framework core: findings, rules, pragmas, parsed modules.

A :class:`Rule` inspects one :class:`LintModule` (a parsed source
file) and yields :class:`Finding` objects.  Rules self-register into
:data:`RULES` via the :func:`register` decorator, so adding a rule is
one class in :mod:`repro.lint.rules` — the runner, the reporters and
the CLI pick it up by name automatically.

Suppression is per line and per rule::

    value = time.time()  # lint: allow(wall-clock) -- provenance only

A pragma on a line that is *only* a comment covers the following line
instead, so justifications can sit above long statements.  Pragmas
name specific rule ids; there is deliberately no blanket "allow all".
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

PathLike = Union[str, Path]
T = TypeVar("T")


class Severity(Enum):
    """How bad a finding is; ``error`` findings fail the CLI run."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable report ordering: path, then position, then rule."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """JSON-facing representation (one JSONL record)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\(\s*([A-Za-z0-9_\s,-]+?)\s*\)")


def parse_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line numbers to the rule ids allowed there.

    ``# lint: allow(rule)`` covers its own line; when the whole line is
    a comment, the allowance chains down through the rest of the
    comment block to the first non-comment line (the justification-
    above idiom, which may run to several comment lines).  Multiple
    rules separate with commas.
    """
    allows: Dict[int, set] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allows.setdefault(lineno, set()).update(rules)
        if text.lstrip().startswith("#"):
            target = lineno + 1
            while target <= len(lines) and lines[target - 1].lstrip().startswith("#"):
                allows.setdefault(target, set()).update(rules)
                target += 1
            allows.setdefault(target, set()).update(rules)
    return {line: frozenset(rules) for line, rules in allows.items()}


class LintModule:
    """One parsed source file, ready for rule inspection.

    Rules share per-module work: :attr:`nodes` is the one walk of the
    tree, and :meth:`shared` runs any other per-module analysis once,
    however many rules ask for it.
    """

    def __init__(self, path: PathLike, source: str) -> None:
        self.path = Path(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.allows = parse_pragmas(source)
        self._shared: Dict[Callable[["LintModule"], Any], Any] = {}

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree`, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    def shared(self, compute: Callable[["LintModule"], T]) -> T:
        """``compute(self)``, computed on first use and reused after."""
        if compute not in self._shared:
            self._shared[compute] = compute(self)
        return self._shared[compute]

    @classmethod
    def from_path(cls, path: PathLike) -> "LintModule":
        """Read and parse ``path`` (raises ``SyntaxError`` on bad source)."""
        return cls(path, Path(path).read_text())

    @property
    def repro_parts(self) -> Optional[Tuple[str, ...]]:
        """Path components after the ``repro`` package root, or ``None``.

        ``src/repro/ppp/fsm.py`` → ``("ppp", "fsm.py")``.  Files outside
        the package (test fixtures, ad-hoc targets) return ``None``;
        scope-limited rules treat those as in scope so fixtures exercise
        them.
        """
        parts = self.path.parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                return tuple(parts[index + 1 :])
        return None

    def allowed(self, rule_id: str, line: int) -> bool:
        """Whether a pragma suppresses ``rule_id`` on ``line``."""
        return rule_id in self.allows.get(line, frozenset())


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (kebab-case, used in pragmas and ``--rule``),
    ``severity`` and ``description``, and implement :meth:`check`.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Yield findings for ``module``."""
        raise NotImplementedError

    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def summarize(self, module: LintModule) -> Optional[Any]:
        """Per-file contribution to the project phase, or ``None``."""
        return None

    def finish(self, contributions: List[Tuple[str, Any]]) -> Iterable[Finding]:
        """Project-wide findings from every file's contribution.

        ``contributions`` is path-sorted ``(path, payload)`` pairs for
        this rule; called once per run after all files are read.
        """
        return ()


#: Rule id → instance; populated by :func:`register` at import time.
RULES: Dict[str, Rule] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator installing a rule into :data:`RULES`."""
    rule = rule_class()
    if not rule.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule_class


class UnknownRuleError(KeyError):
    """``--rule`` named a rule id that is not registered."""

    def __init__(self, rule_id: str, known: List[str]) -> None:
        super().__init__(rule_id)
        self.rule_id = rule_id
        self.known = known

    def __str__(self) -> str:
        return f"unknown rule {self.rule_id!r} (known: {', '.join(self.known)})"


def select_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve ``--rule`` selections.

    Unknown ids raise :class:`UnknownRuleError` carrying the offending
    id and the sorted list of registered rules, so the CLI can print a
    helpful message and exit 2.
    """
    if rule_ids is None:
        return [RULES[name] for name in sorted(RULES)]
    selected = []
    for rule_id in rule_ids:
        if rule_id not in RULES:
            raise UnknownRuleError(rule_id, sorted(RULES))
        selected.append(RULES[rule_id])
    return selected
