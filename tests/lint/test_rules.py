"""Per-rule fixture tests: each fixture trips exactly its own rule.

The shipped RFC 1661 transition table is checked here too, on the
imported objects that run rather than by a lint rule.
"""

import itertools
from pathlib import Path

from repro.lint import lint_paths
from repro.ppp.fsm import INITIAL_STATE, TRANSITIONS, FsmEvent, FsmState, NegotiationFsm
from repro.ppp.lcp import LcpFsm

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(fixture: str, rule: str):
    return lint_paths([FIXTURES / fixture], rule_ids=[rule])


def locations(findings):
    return [(f.line, f.rule) for f in findings]


class TestWallClock:
    def test_flags_every_ambient_read(self):
        findings = findings_for("wall_clock.py", "wall-clock")
        assert locations(findings) == [(9, "wall-clock"), (13, "wall-clock"), (17, "wall-clock")]
        assert all(f.path.endswith("wall_clock.py") for f in findings)
        assert "time.time()" in findings[0].message
        assert "datetime.datetime.now()" in findings[1].message
        assert "os.urandom()" in findings[2].message

    def test_perf_counter_and_pragma_are_exempt(self):
        lines = [f.line for f in findings_for("wall_clock.py", "wall-clock")]
        assert 21 not in lines  # perf_counter is measurement, not input
        assert 25 not in lines  # suppressed by # lint: allow(wall-clock)


class TestUnseededRandom:
    def test_flags_module_level_and_unseeded(self):
        findings = findings_for("unseeded_random.py", "unseeded-random")
        assert locations(findings) == [
            (7, "unseeded-random"),
            (11, "unseeded-random"),
            (15, "unseeded-random"),
        ]
        assert "module-level RNG" in findings[0].message
        assert "without a seed" in findings[1].message
        assert "SystemRandom" in findings[2].message


class TestDirectRng:
    def test_flags_seeded_construction(self):
        findings = findings_for("direct_rng.py", "direct-rng")
        assert locations(findings) == [(7, "direct-rng")]
        assert "RandomStreams.stream" in findings[0].message

    def test_rng_home_is_exempt(self):
        rng_home = Path(__file__).parents[2] / "src" / "repro" / "sim" / "rng.py"
        assert lint_paths([rng_home], rule_ids=["direct-rng", "unseeded-random"]) == []


class TestSetIteration:
    def test_flags_for_comprehension_and_materialization(self):
        findings = findings_for("set_iteration.py", "set-iteration")
        assert locations(findings) == [
            (7, "set-iteration"),
            (12, "set-iteration"),
            (16, "set-iteration"),
        ]

    def test_sorted_copy_is_exempt(self):
        assert 20 not in [f.line for f in findings_for("set_iteration.py", "set-iteration")]


class TestIdOrdering:
    def test_flags_key_id_and_id_calls(self):
        findings = findings_for("id_ordering.py", "id-ordering")
        assert [(f.line, "key=id" in f.message) for f in findings] == [
            (7, True),
            (11, False),
        ]


class TestUntypedDef:
    def test_flags_annotation_gaps(self):
        findings = findings_for("untyped.py", "untyped-def")
        messages = {(f.line, f.message) for f in findings}
        assert (4, "def missing_param has unannotated parameters: x") in messages
        assert (8, "def missing_return has no return annotation") in messages
        assert (16, "def method has unannotated parameters: other") in messages

    def test_init_exception_and_full_annotations_pass(self):
        lines = [f.line for f in findings_for("untyped.py", "untyped-def")]
        assert 13 not in lines  # __init__ with an annotated param
        assert 20 not in lines  # fully annotated def


class TestRetryPolicy:
    def test_flags_sleep_calls_including_from_import(self):
        findings = findings_for("retry_sleep.py", "retry-policy")
        assert locations(findings) == [(8, "retry-policy"), (12, "retry-policy")]
        assert all("time.sleep()" in f.message for f in findings)

    def test_sleep_pragma_is_exempt(self):
        lines = [f.line for f in findings_for("retry_sleep.py", "retry-policy")]
        assert 16 not in lines  # suppressed by # lint: allow(retry-policy)

    def test_flags_attempt_named_range_loops(self):
        findings = findings_for("retry_loop.py", "retry-policy")
        assert locations(findings) == [(5, "retry-policy"), (12, "retry-policy")]
        assert "'attempt'" in findings[0].message
        assert "'retry'" in findings[1].message
        assert all("RetryPolicy.attempts()" in f.message for f in findings)

    def test_honest_loops_are_exempt(self):
        lines = [f.line for f in findings_for("retry_loop.py", "retry-policy")]
        assert 20 not in lines  # loop variable is not an attempt counter
        assert 27 not in lines  # attempt-named, but not a range() loop

    def test_retry_home_is_exempt(self):
        retry_home = Path(__file__).parents[2] / "src" / "repro" / "core" / "retry.py"
        assert lint_paths([retry_home], rule_ids=["retry-policy"]) == []


class TestWorkerSafety:
    def test_flags_every_runtime_mutation(self):
        findings = findings_for("worker_unsafe.py", "worker-safety")
        assert locations(findings) == [
            (10, "worker-safety"),
            (15, "worker-safety"),
            (19, "worker-safety"),
            (23, "worker-safety"),
            (27, "worker-safety"),
        ]
        assert "'global TOTAL'" in findings[0].message
        assert "SEEN.append()" in findings[4].message

    def test_local_shadows_parameters_and_pragma_are_exempt(self):
        lines = [f.line for f in findings_for("worker_unsafe.py", "worker-safety")]
        assert all(line <= 27 for line in lines)  # nothing after bad_mutator

    def test_scope_is_the_parallel_package(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        # The rule is silent outside repro.parallel: the testbed module
        # mutates module state legitimately (it is not job code).
        assert lint_paths([src / "faults"], rule_ids=["worker-safety"]) == []
        # ... and the parallel package itself must stay clean.
        assert lint_paths([src / "parallel"], rule_ids=["worker-safety"]) == []

    def test_entry_point_registry_needs_its_pragma(self, tmp_path):
        jobs = Path(__file__).parents[2] / "src" / "repro" / "parallel" / "jobs.py"
        source = jobs.read_text()
        assert "# lint: allow(worker-safety)" in source
        stripped = tmp_path / "jobs_stripped.py"
        stripped.write_text(
            source.replace("# lint: allow(worker-safety)", "# (pragma removed)")
        )
        findings = lint_paths([stripped], rule_ids=["worker-safety"])
        assert len(findings) == 1
        assert "ENTRY_POINTS" in findings[0].message


class TestRealTransitionTable:
    """The table LCP and IPCP run, read from the live objects."""

    #: What a protocol subclass inherits untouched: it may override only
    #: the option policy (initial_options, check_peer_options, on_nak).
    MACHINERY = {
        "_dispatch",
        "receive",
        "_set_state",
        "open",
        "close",
        "abort",
        "_on_timeout",
        "send_packet",
    }
    MACHINERY_PREFIXES = ("_act_", "_enter_", "_ack_")

    def test_shipped_table_is_complete(self):
        """Every state × event pair has exactly one transition (RFC 1661
        §4.1 answers every event in every state), every target is a
        state, every state is reachable from INITIAL_STATE, and every
        action is a NegotiationFsm method."""
        matrix = set(itertools.product(FsmState, FsmEvent))
        assert sorted(matrix - TRANSITIONS.keys(), key=str) == [], "missing transitions"
        assert sorted(TRANSITIONS.keys() - matrix, key=str) == [], "keys outside the matrix"
        edges = {state: set() for state in FsmState}
        for (state, event), transition in TRANSITIONS.items():
            assert transition.targets, (state, event)
            assert all(isinstance(t, FsmState) for t in transition.targets), (state, event)
            assert callable(getattr(NegotiationFsm, transition.action, None)), transition
            edges[state].update(transition.targets)
        reached, frontier = {INITIAL_STATE}, [INITIAL_STATE]
        while frontier:
            for target in edges[frontier.pop()] - reached:
                reached.add(target)
                frontier.append(target)
        assert set(FsmState) - reached == set(), "unreachable states"

    def test_lcp_ipcp_only_override_policy(self):
        """No subclass of NegotiationFsm shadows the dispatch machinery."""
        subclasses, frontier = [], [NegotiationFsm]
        while frontier:
            for subclass in frontier.pop().__subclasses__():
                subclasses.append(subclass)
                frontier.append(subclass)
        assert LcpFsm in subclasses
        for subclass in subclasses:
            overrides = sorted(
                name
                for name in vars(subclass)
                if name in self.MACHINERY or name.startswith(self.MACHINERY_PREFIXES)
            )
            assert overrides == [], f"{subclass.__qualname__} overrides {overrides}"


class TestMetricName:
    def test_flags_every_runtime_built_name(self):
        findings = findings_for("metric_name.py", "metric-name")
        assert locations(findings) == [
            (21, "metric-name"),
            (25, "metric-name"),
            (29, "metric-name"),
            (33, "metric-name"),
            (37, "metric-name"),
            (41, "metric-name"),
        ]
        assert "f-string" in findings[0].message
        assert "concatenation" in findings[1].message
        assert "str()" in findings[2].message
        assert ".format()" in findings[3].message
        assert "not a valid metric name" in findings[4].message
        assert ".span()" in findings[5].message

    def test_static_and_precomputed_names_pass(self):
        lines = [f.line for f in findings_for("metric_name.py", "metric-name")]
        assert 46 not in lines  # static literal
        assert 50 not in lines  # precomputed variable
        assert 54 not in lines  # amortized accessor call
        assert 58 not in lines  # suppressed by pragma

    def test_hot_paths_in_tree_are_clean(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        targets = [
            src / "core" / "backend.py",
            src / "core" / "connection.py",
            src / "netfilter" / "chains.py",
            src / "ppp" / "fsm.py",
        ]
        assert lint_paths(targets, rule_ids=["metric-name"]) == []
