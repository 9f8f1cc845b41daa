"""The ``repro fleet`` subcommand, driven in-process."""

import json

import pytest

from repro.__main__ import main
from repro.fleet.spec import MAX_GROUP_SIZE


def run_fleet(capsys, *extra):
    argv = [
        "fleet", "--nodes", "4", "--group-size", "4",
        "--duration", "1", "--stagger", "6", "-j", "1",
        *extra,
    ]
    code = main(argv)
    return code, capsys.readouterr().out


def test_fleet_runs_and_reports(capsys, tmp_path):
    jsonl = tmp_path / "fleet.jsonl"
    om = tmp_path / "fleet.om"
    code, out = run_fleet(
        capsys, "--jsonl", str(jsonl), "--openmetrics", str(om)
    )
    assert code == 0
    assert "ok   g0000" in out
    assert "completed=4" in out
    assert "campaign: digest=" in out
    (line,) = jsonl.read_text().splitlines()
    report = json.loads(line)
    assert report["clean"] and report["finished"]
    assert report["digest"]
    text = om.read_text()
    assert "repro_fleet_lease_starved_total" in text
    assert "repro_fleet_fairness_jain" in text


def test_fleet_openmetrics_on_stdout_is_the_bare_exposition(capsys, tmp_path):
    # An export to "-" owns stdout: no table row or file confirmation
    # before the exposition and no summary or campaign line after "# EOF".
    jsonl = tmp_path / "fleet.jsonl"
    code, out = run_fleet(capsys, "--jsonl", str(jsonl), "--openmetrics")
    assert code == 0
    assert out.startswith("# ")
    assert out.endswith("# EOF\n")
    assert "repro_fleet_fairness_jain" in out
    assert json.loads(jsonl.read_text())["clean"]


def test_fleet_check_verifies_determinism(capsys):
    code, out = run_fleet(capsys, "--check")
    assert code == 0
    assert "NON-DETERMINISTIC" not in out


def test_group_size_help_states_the_real_cap(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fleet", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert str(MAX_GROUP_SIZE) in text
    assert f"max {MAX_GROUP_SIZE})" in text


def test_fleet_rejects_bad_spec(capsys):
    assert main(["fleet", "--nodes", "0"]) == 2
    assert main(["fleet", "--nodes", "4", "--fault", "fleet:reboot@t=1"]) == 2


def test_fleet_chaos_kill_reports_dead_nodes(capsys):
    code, out = run_fleet(capsys, "--fault", "fleet:node_kill@t=12,node=0")
    assert code == 0
    assert "dead=1" in out
