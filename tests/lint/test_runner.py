"""Runner plumbing: discovery dedupe, pragmas, parse errors, rule lookup."""

from pathlib import Path

import pytest

from repro.lint import UnknownRuleError, iter_python_files, lint_paths
from repro.lint.core import parse_pragmas, select_rules

SRC = Path(__file__).parents[2] / "src" / "repro"


class TestIterPythonFiles:
    def test_overlapping_directories_dedupe(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("A = 1\n")
        (pkg / "b.py").write_text("B = 2\n")
        files = list(iter_python_files([tmp_path, pkg]))
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_file_listed_twice_yields_once(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("A = 1\n")
        assert len(list(iter_python_files([target, target, tmp_path]))) == 1

    def test_order_stays_sorted(self, tmp_path):
        for name in ("c.py", "a.py", "b.py"):
            (tmp_path / name).write_text("X = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]


class TestPragmas:
    def test_comma_list_allows_both_rules(self):
        allows = parse_pragmas("x = 1  # lint: allow(wall-clock, retry-policy)\n")
        assert allows[1] == frozenset({"wall-clock", "retry-policy"})

    def test_inline_pragma_covers_only_its_line(self):
        allows = parse_pragmas("x = 1  # lint: allow(wall-clock)\ny = 2\n")
        assert 2 not in allows

    def test_comment_pragma_chains_through_the_block(self):
        source = (
            "# lint: allow(wall-clock) -- provenance only; the stamp\n"
            "# never feeds back into simulated time, so determinism\n"
            "# is not at risk here.\n"
            "stamp = time.time()\n"
            "after = time.time()\n"
        )
        allows = parse_pragmas(source)
        for line in (1, 2, 3, 4):
            assert "wall-clock" in allows[line], line
        assert 5 not in allows  # the chain stops at the first code line

    def test_comment_pragma_on_the_last_line_is_harmless(self):
        allows = parse_pragmas("x = 1\n# lint: allow(wall-clock)")
        assert "wall-clock" in allows[2]

    def test_chained_pragma_suppresses_a_finding(self, tmp_path):
        target = tmp_path / "stamped.py"
        target.write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp() -> float:\n"
            "    # lint: allow(wall-clock) -- provenance only: the value\n"
            "    # is written to the report header, never used as input.\n"
            "    return time.time()\n"
        )
        assert lint_paths([target], rule_ids=["wall-clock"]) == []


class TestParseErrors:
    def test_bad_file_becomes_a_synthetic_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n    pass\n")
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"
        assert findings[0].severity.value == "error"
        assert findings[0].line == 1
        assert "cannot parse" in findings[0].message

    def test_one_bad_file_does_not_hide_the_rest(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "hot.py").write_text(
            "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"
        )
        findings = lint_paths([tmp_path], rule_ids=["wall-clock"])
        assert sorted(f.rule for f in findings) == ["parse-error", "wall-clock"]


#: isolation.py's teardown of the source-address RPDB rule: the line it
#: records and the typed call that carries it out.
SRC_RULE_TEARDOWN = (
    '        self.stack.ip.record(f"rule del pref {PREF_SRC_RULE}")\n'
    "        _attempt(skipped, self.stack.ip.rule_del, PREF_SRC_RULE)\n"
)


class TestProjectPhase:
    def test_mutated_real_modules_report_class_pairing_findings(self, tmp_path):
        # Copy two real modules and break both: backend.py's catch-all
        # narrows (a per-function CFG finding) and isolation.py loses the
        # removal of a routing rule it installs (a project-phase one).
        backend = tmp_path / "backend.py"
        backend.write_text(
            (SRC / "core" / "backend.py").read_text().replace(
                "        except BaseException:\n", "        except ValueError:\n"
            )
        )
        isolation = tmp_path / "isolation.py"
        isolation.write_text(
            (SRC / "core" / "isolation.py").read_text().replace(
                SRC_RULE_TEARDOWN, ""
            )
        )
        findings = lint_paths([tmp_path], rule_ids=["resource-lifecycle"])
        assert {f.path for f in findings} == {str(backend), str(isolation)}
        pairing = [f for f in findings if f.path == str(isolation)]
        assert len(pairing) == 1
        assert "pref {PREF_SRC_RULE}' installs kernel state" in pairing[0].message
        assert "in class IsolationManager" in pairing[0].message
        assert findings == sorted(findings, key=lambda f: f.sort_key())

    def test_pragma_suppresses_a_project_phase_finding(self, tmp_path):
        source = (SRC / "core" / "isolation.py").read_text().replace(
            SRC_RULE_TEARDOWN, ""
        )
        target = tmp_path / "isolation.py"
        target.write_text(source)
        (finding,) = lint_paths([target], rule_ids=["resource-lifecycle"])
        lines = source.splitlines(keepends=True)
        lines[finding.line - 1] = (
            lines[finding.line - 1].rstrip("\n")
            + "  # lint: allow(resource-lifecycle)\n"
        )
        target.write_text("".join(lines))
        assert lint_paths([target], rule_ids=["resource-lifecycle"]) == []


class TestRuleSelection:
    def test_unknown_rule_raises_a_friendly_error(self):
        with pytest.raises(UnknownRuleError) as info:
            select_rules(["no-such-rule"])
        assert info.value.rule_id == "no-such-rule"
        assert "resource-lifecycle" in info.value.known
        assert "lease-protocol" in info.value.known
        message = str(info.value)
        assert "unknown rule 'no-such-rule'" in message
        assert "known:" in message

    def test_unknown_rule_is_still_a_key_error(self):
        with pytest.raises(KeyError):
            lint_paths([Path(__file__)], rule_ids=["no-such-rule"])
