"""The tree itself must satisfy its own linter (all rules, zero findings),
and the rule catalogue in docs/STATIC_ANALYSIS.md must list every rule."""

import re
from pathlib import Path

from repro.lint import RULES, human_report, lint_paths

ROOT = Path(__file__).parents[2]
SRC = ROOT / "src" / "repro"


def test_src_repro_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(human_report(findings))


def test_linter_actually_scanned_the_tree():
    # Guard against a silent no-op: the discovery pass must see the
    # package's modules, including the strict packages and the linter.
    from repro.lint import iter_python_files

    files = {path.name for path in iter_python_files([SRC])}
    for expected in ("engine.py", "fsm.py", "daemon.py", "scenarios.py", "core.py"):
        assert expected in files


def test_every_rule_has_a_catalogue_row():
    text = (ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    catalogue = text.split("## Rule catalogue", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([a-z-]+)` \|", catalogue, re.MULTILINE))
    assert rows == set(RULES)
