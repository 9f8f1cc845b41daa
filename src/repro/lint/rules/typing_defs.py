"""Typing rule: the strict packages require fully annotated defs.

Mirrors the mypy ``disallow_untyped_defs`` escalation configured in
``pyproject.toml`` for ``repro.sim``, ``repro.ppp``, ``repro.vsys``,
``repro.bench`` and ``repro.parallel`` — including mypy's one
exception: ``__init__`` may omit ``-> None`` when at least one
parameter is annotated.  Having the check in-repo means it runs even
where mypy is not installed, and the two gates can never silently
drift apart on which files are strict.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple, Union

from repro.lint.core import Finding, LintModule, Rule, Severity, register

#: Packages under ``repro`` held to full annotation coverage.
STRICT_PACKAGES = ("sim", "ppp", "vsys", "bench", "parallel")

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _iter_functions(node: ast.AST, in_class: bool) -> Iterator[Tuple[_FunctionNode, bool]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, in_class
            yield from _iter_functions(child, False)
        elif isinstance(child, ast.ClassDef):
            yield from _iter_functions(child, True)
        else:
            yield from _iter_functions(child, in_class)


def _is_static(func: _FunctionNode) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in func.decorator_list
    )


@register
class UntypedDefRule(Rule):
    """Every def in a strict package must be fully annotated."""

    id = "untyped-def"
    severity = Severity.ERROR
    description = (
        "require parameter and return annotations on every def in "
        f"repro.{{{','.join(STRICT_PACKAGES)}}} (mypy disallow_untyped_defs)"
    )

    def _applies(self, module: LintModule) -> bool:
        parts = module.repro_parts
        if parts is None:
            return True  # fixtures / explicit targets outside the package
        return len(parts) > 0 and parts[0] in STRICT_PACKAGES

    def check(self, module: LintModule) -> Iterable[Finding]:
        if not self._applies(module):
            return
        for func, is_method in _iter_functions(module.tree, False):
            args = func.args
            positional = list(args.posonlyargs) + list(args.args)
            skip_first = is_method and not _is_static(func) and positional
            unannotated = []
            for index, arg in enumerate(positional):
                if index == 0 and skip_first:
                    continue  # self / cls
                if arg.annotation is None:
                    unannotated.append(arg.arg)
            unannotated.extend(
                arg.arg for arg in args.kwonlyargs if arg.annotation is None
            )
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    unannotated.append(f"*{star.arg}")
            if unannotated:
                yield self.finding(
                    module,
                    func,
                    f"def {func.name} has unannotated parameters: "
                    + ", ".join(unannotated),
                )
            if func.returns is None:
                annotated_params = any(
                    arg.annotation is not None
                    for arg in positional + list(args.kwonlyargs)
                )
                if func.name == "__init__" and annotated_params:
                    continue  # mypy's __init__ exception
                yield self.finding(
                    module, func, f"def {func.name} has no return annotation"
                )
