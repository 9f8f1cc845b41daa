"""File discovery and the lint pass: every file, every rule, in-process.

:func:`lint_paths` reads each file in sorted path order, runs every
selected rule's per-file ``check`` (pragma-filtered) and collects its
``summarize`` contribution, then hands each rule its path-sorted
contributions for the project phase (``Rule.finish``).  The final
findings are sorted by :meth:`Finding.sort_key`, so a report is a pure
function of the files and the selected rules.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.lint.core import (
    Finding,
    LintModule,
    PathLike,
    Severity,
    select_rules,
)

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, stable order.

    Overlapping arguments (``repro lint src src/repro``) are deduped
    by resolved path — every file is yielded at most once, the first
    time it is reached.
    """
    seen = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    resolved = candidate.resolve()
                    if resolved not in seen:
                        seen.add(resolved)
                        yield candidate
        elif path.suffix == ".py":
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="parse-error",
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"cannot parse: {exc.msg}",
    )


def lint_paths(
    paths: Iterable[PathLike], rule_ids: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the selected rules over every file; pragmas filtered out.

    Unparsable files surface as synthetic ``parse-error`` findings
    rather than aborting the run, so one bad file cannot hide findings
    in the rest of the tree.
    """
    rules = select_rules(rule_ids)
    findings: List[Finding] = []
    contributions: Dict[str, List[Tuple[str, Any]]] = {}
    allows: Dict[str, Dict[int, FrozenSet[str]]] = {}
    # Sort on the path string, not the Path: their orders differ.
    for path in sorted(str(file_path) for file_path in iter_python_files(paths)):
        try:
            module = LintModule.from_path(path)
        except SyntaxError as exc:
            findings.append(_parse_error_finding(path, exc))
            continue
        allows[path] = module.allows
        for rule in rules:
            findings.extend(
                finding
                for finding in rule.check(module)
                if not module.allowed(finding.rule, finding.line)
            )
            payload = rule.summarize(module)
            if payload is not None:
                contributions.setdefault(rule.id, []).append((path, payload))
    for rule in rules:
        if rule.id in contributions:
            findings.extend(
                finding
                for finding in rule.finish(contributions[rule.id])
                if finding.rule not in allows[finding.path].get(finding.line, ())
            )
    findings.sort(key=Finding.sort_key)
    return findings
