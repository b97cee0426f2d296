import json

import pytest

from effgap.cli import build_parser, format_half, format_percent, main
from effgap.grid import read_instance, read_partition
from fractions import Fraction
from conftest import TOY_COUNTY_CSV


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_COUNTY_CSV)
    return path


def test_format_helpers():
    assert format_percent(Fraction(1476, 10000)) == "14.76 %"
    assert format_percent(Fraction(1, 3)) == "33.33 %"
    assert format_half(25) == "12.5"
    assert format_half(-61) == "-30.5"
    assert format_half(40) == "20"


def test_defaults_match_published_run_parameters():
    args = build_parser().parse_args(["localsearch", "x.csv"])
    assert args.mu == 100 and args.k == 20


def test_stats_command(toy_file, capsys):
    code = main(["stats", str(toy_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalized efficiency gap" in out
    assert "seats: Democrats 1 / GOP 1" in out


def test_stats_json_records(toy_file, capsys):
    assert main(["stats", str(toy_file), "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in out if line.startswith("{")]
    assert len(records) == 2
    assert {r["district"] for r in records} == {1, 2}


def test_manifest_written_to_file(toy_file, tmp_path):
    manifest_path = tmp_path / "run.json"
    assert main(["--manifest", str(manifest_path), "stats", str(toy_file)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "stats"
    assert manifest["version"]
    assert str(toy_file) in manifest["inputs"]
    assert manifest["result"]["seats_a"] == 1


def test_stats_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,header\n1,2,3,4\n")
    assert main(["stats", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_plan_unknown_district_exit_code(toy_file, tmp_path, capsys):
    plan = tmp_path / "plan.csv"
    plan.write_text(
        "district,county_id,assigned_district\n"
        "1,A1,1\n1,A2,1\n2,B1,7\n2,B2,7\n"
    )
    assert main(["stats", str(toy_file), "--plan", str(plan)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 4: unknown district 7\n"


def test_localsearch_reproducible_stdout(toy_file, tmp_path, capsys):
    argv = ["localsearch", str(toy_file), "--seed", "42", "--mu", "10", "--k", "3",
            "--replicas", "2", "--jobs", "1",
            "--trace-out", str(tmp_path / "trace.txt")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    trace1 = (tmp_path / "trace.txt").read_text()
    assert main(argv) == 0
    second = capsys.readouterr().out
    trace2 = (tmp_path / "trace.txt").read_text()
    assert first == second
    assert trace1 == trace2
    assert "original" in first and "new" in first


def test_solve_brute_and_yconvex_agree(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    assert main(["solve", str(grid), "--solver", "brute"]) == 0
    brute_out = capsys.readouterr().out
    assert main(["solve", str(grid), "--solver", "yconvex"]) == 0
    yconvex_out = capsys.readouterr().out
    assert "value (scaled by 2): 0" in brute_out
    assert "value (scaled by 2): 0" in yconvex_out


def test_solve_kappa_one(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 1\n0 0 3 1\n0 1 0 2\n")
    assert main(["solve", str(grid), "--solver", "yconvex"]) == 0
    out = capsys.readouterr().out
    # One district holding everything: A=3, B=3, a tie, gap = |4*3 - 3*6| = 6.
    assert "value (scaled by 2): 6" in out


def test_solve_infeasible_exit(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 2\n0 0 1 0\n0 1 0 2\n")
    assert main(["solve", str(grid)]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_gen_hardness_then_solve(tmp_path, capsys):
    grid = tmp_path / "gadget.txt"
    assert main(["gen-hardness", "10", "30", "40", "50", "60", "80", "90",
                 "--scale", "4", "-o", str(grid)]) == 0
    capsys.readouterr()
    plan = tmp_path / "plan.txt"
    assert main(["solve", str(grid), "--oracle-limit", "24", "--plan-out", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "value (scaled by 2): 0" in out
    polygon, kappa = read_instance(grid.read_text())
    labels = read_partition(plan.read_text()).labels
    assert kappa == 2 and set(labels) == set(polygon.votes)


def test_gen_hardness_divisibility_hint(capsys):
    assert main(["gen-hardness", "10", "30"]) == 1
    assert "--scale 4" in capsys.readouterr().err


def test_solve_canonical_subcommand(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    lines = ["6 6 2"]
    for r in range(6):
        for c in range(6):
            a = 4 if (r, c) in {(2, 2), (2, 3), (3, 2), (3, 3)} else 0
            lines.append(f"{r} {c} {a} {4 - a}")
    grid.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(grid), "--solver", "canonical", "--epsilon", "1/5"]) == 0
    out = capsys.readouterr().out
    assert "nearness achieved" in out and "status: optimal" in out


def test_synth_data_command(tmp_path, capsys):
    out_file = tmp_path / "wi.csv"
    assert main(["synth-data", "WI", "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "normalized efficiency gap: 14.76 %" in out
    assert "vote share: Democrats 50.75 % / GOP 49.25 %" in out


def test_env_data_dir_resolution(toy_file, monkeypatch, capsys):
    monkeypatch.setenv("EFFGAP_DATA_DIR", str(toy_file.parent))
    monkeypatch.chdir(toy_file.parent.parent)
    assert main(["stats", toy_file.name]) == 0
    assert "normalized efficiency gap" in capsys.readouterr().out
