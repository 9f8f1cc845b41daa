"""resource-lifecycle rule: fixtures, pragmas, and real-source proofs."""

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


def findings_for(fixture: str, rule: str = "resource-lifecycle"):
    return lint_paths([FIXTURES / fixture], rule_ids=[rule])


class TestPerFunctionChecks:
    def test_fixture_defects(self):
        findings = findings_for("lifecycle_leak.py")
        assert [(f.line, f.rule) for f in findings] == [
            (6, "resource-lifecycle"),
            (13, "resource-lifecycle"),
            (19, "resource-lifecycle"),
            (22, "resource-lifecycle"),
        ]
        assert "can reach a normal exit without end/fail" in findings[0].message
        assert "can leak on an exception path" in findings[1].message
        assert "can be skipped by an exception path" in findings[2].message
        assert "acquired and discarded" in findings[3].message

    def test_with_statement_and_guarded_cleanup_are_exempt(self):
        lines = [f.line for f in findings_for("lifecycle_leak.py")]
        assert all(line <= 22 for line in lines), lines

    def test_pragma_suppresses(self, tmp_path):
        source = (FIXTURES / "lifecycle_leak.py").read_text()
        allowed = tmp_path / "allowed.py"
        allowed.write_text(
            source.replace(
                'span = trace.span("umts.cmd")  # line 6',
                'span = trace.span("umts.cmd")  # lint: allow(resource-lifecycle)',
            )
        )
        lines = [f.line for f in lint_paths([allowed], rule_ids=["resource-lifecycle"])]
        assert 6 not in lines
        assert 13 in lines  # the others still fire


class TestClassPairing:
    def test_fixture_defects(self):
        findings = findings_for("lifecycle_class_pair.py")
        assert [(f.line, f.rule) for f in findings] == [
            (11, "resource-lifecycle"),
            (16, "resource-lifecycle"),
            (17, "resource-lifecycle"),
        ]
        assert "no matching release" in findings[0].message
        assert "class KeepsPppd" in findings[0].message
        assert "'rule add fwmark 0x1 lookup 75 pref 32764'" in findings[1].message
        assert "'-t mangle -A umts-mark -j MARK'" in findings[2].message

    def test_fstring_holes_pair_across_spellings(self):
        # `route add ... table {table}` pairs with `route flush table
        # {table}` even though install and removal render differently.
        messages = [f.message for f in findings_for("lifecycle_class_pair.py")]
        assert not any("route" in m for m in messages)

    def test_span_stored_and_released_across_methods_is_clean(self):
        lines = [f.line for f in findings_for("lifecycle_class_pair.py")]
        assert all(line <= 17 for line in lines), lines  # PairsEverything clean


class TestRealSources:
    """The acceptance proof: deleting one release from the shipped tree
    makes the rule report exactly that leak."""

    def test_shipped_modules_are_clean(self, tmp_path):
        # Copies (outside the package root) lose the home exemption,
        # so this also proves the modules pass the full-strength rule.
        for name in ("core/backend.py", "core/isolation.py"):
            copy = tmp_path / Path(name).name
            copy.write_text((SRC / name).read_text())
            assert lint_paths([copy], rule_ids=["resource-lifecycle"]) == [], name

    def test_deleting_the_stop_finally_reports_the_lock_leak(self, tmp_path):
        source = (SRC / "core" / "backend.py").read_text()
        protected = (
            "        try:\n"
            "            code, lines = yield from self.connection.disconnect()\n"
            "        finally:\n"
            "            # Rules are already gone; the lock must follow even if the\n"
            "            # hangup is interrupted, or the interface wedges forever.\n"
            "            self.lock.release(slice_name)\n"
            '            self._log(f"stop: connection down, lock released by '
            '{slice_name}")\n'
        )
        assert protected in source, "backend._stop moved; update the test"
        unprotected = (
            "        code, lines = yield from self.connection.disconnect()\n"
            "        self.lock.release(slice_name)\n"
            '        self._log(f"stop: connection down, lock released by '
            '{slice_name}")\n'
        )
        mutated = tmp_path / "backend_mutated.py"
        mutated.write_text(source.replace(protected, unprotected))
        findings = lint_paths([mutated], rule_ids=["resource-lifecycle"])
        assert len(findings) == 1
        assert "release of interface-lock 'self.lock' can be skipped" in (
            findings[0].message
        )

    def test_deleting_the_rpdb_rule_del_reports_the_install(self, tmp_path):
        source = (SRC / "core" / "isolation.py").read_text()
        removal = (
            '        self.stack.ip.record(f"rule del pref {PREF_SRC_RULE}")\n'
            "        _attempt(skipped, self.stack.ip.rule_del, PREF_SRC_RULE)\n"
        )
        assert removal in source, "isolation teardown moved; update the test"
        mutated = tmp_path / "isolation_mutated.py"
        mutated.write_text(source.replace(removal, ""))
        findings = lint_paths([mutated], rule_ids=["resource-lifecycle"])
        assert len(findings) == 1
        assert "installs kernel state with no matching removal" in findings[0].message
        assert "pref {PREF_SRC_RULE}" in findings[0].message
        assert "class IsolationManager" in findings[0].message
