"""CLI threading: the grammar reaches chaos, sweep and fleet runners."""

from repro.__main__ import main

POINTS = ["climb/fade/visit/tunnel", "r99/none/home/local"]


def test_chaos_scenario_grammar_list_prints_all_points(capsys):
    assert main(["chaos", "--scenario-grammar", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 36
    assert lines[0] == "r99/none/home/local"
    assert "climb/fade/visit/tunnel" in lines


def test_chaos_scenario_grammar_runs_points(capsys):
    args = ["chaos", "--scenario-grammar"]
    for point in POINTS:
        args += ["--scenario", point]
    assert main(args) == 0
    out = capsys.readouterr().out
    for point in POINTS:
        assert point in out
    assert "2/2 scenarios as expected" in out


def test_chaos_scenario_grammar_jsonl_byte_identical_j1_vs_j2(tmp_path):
    one, two = tmp_path / "j1.jsonl", tmp_path / "j2.jsonl"
    base = ["chaos", "--scenario-grammar",
            "--scenario", POINTS[0], "--scenario", POINTS[1]]
    assert main(base + ["--jsonl", str(one)]) == 0
    assert main(base + ["-j", "2", "--jsonl", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_chaos_unknown_grammar_point_exits_2(capsys):
    assert main(["chaos", "--scenario-grammar",
                 "--scenario", "climb/blizzard/home/local"]) == 2
    assert "blizzard" in capsys.readouterr().err


def test_sweep_scenario_changes_the_digest(capsys):
    def digest(extra):
        assert main(["sweep", "--seeds", "2", "--duration", "5"] + extra) == 0
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines()
                   if ln.startswith("campaign: digest=")]
        return line.split()[1]

    plain = digest([])
    # The roaming point reads its bearer history from the visited
    # operator, not the home one.
    for point in ("collapse/recover/home/local", "climb/fade/visit/tunnel"):
        assert digest(["--scenario", point]) != plain


def test_sweep_bad_scenario_exits_2(capsys):
    assert main(["sweep", "--seeds", "2",
                 "--scenario", "not/a/real/point"]) == 2


def test_fleet_scenario_flag_threads_through(capsys):
    assert main(["fleet", "--nodes", "4", "--group-size", "2",
                 "--duration", "1", "--stagger", "6",
                 "--scenario", "climb/fade/home/local",
                 "--scenario", POINTS[1]]) == 0
    out = capsys.readouterr().out
    assert "fleet: 4 node(s) in 2 group(s)" in out


def test_fleet_bad_scenario_exits_2(capsys):
    assert main(["fleet", "--nodes", "4",
                 "--scenario", "nope"]) == 2
    # The fleet models neither roaming nor a remote SIM: such points
    # are rejected rather than run without those dimensions.
    for point in ("climb/fade/visit/local", "r99/none/home/tunnel"):
        assert main(["fleet", "--nodes", "4", "--scenario", point]) == 2
        assert "ladder and handover dimensions only" in capsys.readouterr().err
