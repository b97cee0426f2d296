import hashlib
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from effgap import cli, county, localsearch
from effgap.cli import build_parser, format_half, format_percent, main
from effgap.grid import (
    _MaskIndex,
    brute_force_opt,
    gen_hardness_instance,
    read_instance,
    validate_partition,
    write_instance,
    write_partition,
)
from effgap.synthdata import synth_state_csv
from fractions import Fraction
from conftest import TOY_COUNTY_CSV, county_grid_csv, needs_fork, polygon, read_partition


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


def test_localsearch_runs_replicas_in_process_by_default(toy_file, tmp_path, capsys):
    assert build_parser().parse_args(["localsearch", "x.csv"]).jobs == 1
    outputs = []
    for extra in ([], ["--jobs", "1"]):
        trace = tmp_path / "trace.txt"
        argv = ["localsearch", str(toy_file), "--seed", "3", "--mu", "10", "--k", "3",
                "--replicas", "2", "--trace-out", str(trace), *extra]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, trace.read_text()))
    assert outputs[0] == outputs[1]


@needs_fork
def test_dead_replica_worker_is_a_one_line_error(toy_file, monkeypatch, capsys):
    real_replica = localsearch._run_replica
    monkeypatch.setattr(localsearch, "_run_replica",
                        lambda state0, cfg, replica: os._exit(3) if replica == 1 else real_replica(state0, cfg, replica))
    argv = ["localsearch", str(toy_file), "--k", "3", "--mu", "5", "--replicas", "2", "--jobs", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: replica worker 1 exited with code 3 without sending its replicas\n"
    assert multiprocessing.active_children() == []


def test_jobs_zero_uses_the_cpus_this_process_may_run_on(toy_file, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._usable_cpus() == 3
    seen = []
    real_run = cli.run

    def spy(graph, plan0, cfg, jobs=1):
        seen.append(jobs)
        return real_run(graph, plan0, cfg, jobs=1)

    monkeypatch.setattr(cli, "run", spy)
    assert main(["localsearch", str(toy_file), "--k", "3", "--mu", "5", "--jobs", "0"]) == 0
    capsys.readouterr()
    assert seen == [3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._usable_cpus() == 64


def _package_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_importing_the_cli_loads_no_search_only_module(toy_file):
    """Only the worker processes of local search need multiprocessing, so
    every other command starts without it; and no command, a one-process
    local search included, loads numpy."""
    search_only = ("numpy", "multiprocessing", "concurrent.futures")
    loaded = f"[m for m in {search_only!r} if m in sys.modules]"
    code = (f"import contextlib, io, sys, effgap.cli; print({loaded})\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = effgap.cli.main(['localsearch', {str(toy_file)!r}, '--k', '3', '--mu', '10', '--jobs', '1'])\n"
            f"print(code, {loaded})")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n0 []\n"


@pytest.mark.parametrize("module, loaded", [
    ("effgap", ["effgap"]),
    ("effgap.localsearch", ["effgap", "effgap.core", "effgap.county", "effgap.localsearch"]),
])
def test_a_module_loads_only_what_it_imports(module, loaded):
    """The package root is its version alone, so importing the search, as a
    spawned replica worker does, loads none of the grid solvers."""
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m == 'effgap' or m.startswith('effgap.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
    assert out.stdout == f"{loaded}\n"


@pytest.mark.parametrize("graph, method", [
    ("toy", "spawn"), ("WI", "spawn"), ("toy", "forkserver"), ("WI", "forkserver"),
], ids=["toy", "WI", "toy-forkserver", "WI-forkserver"])
def test_spawned_replica_workers_match_one_process(tmp_path, graph, method):
    """Under the spawn start method (macOS's default) and forkserver
    (Linux's from Python 3.14) a worker imports the package afresh and
    receives its state pickled; --jobs 2 must still write the traces and
    plan of --jobs 1, and two such runs in one process start one worker."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    data = tmp_path / "data.csv"
    data.write_text(TOY_COUNTY_CSV if graph == "toy" else synth_state_csv("WI", 0))
    extra = ["--k", "3", "--mu", "10"] if graph == "toy" else []
    code = f"""\
import contextlib, io, multiprocessing
import effgap.cli
multiprocessing.set_start_method({method!r})
started = []
start = multiprocessing.Process.start
multiprocessing.Process.start = lambda self: (started.append(1), start(self))[1]
for jobs in "122":
    argv = ["localsearch", "data.csv", "--replicas", "4", "--jobs", jobs, "--seed", "5", *{extra!r},
            "--trace-out", f"trace{{jobs}}.txt", "--plan-out", f"plan{{jobs}}.csv"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert effgap.cli.main(argv) == 0
print(multiprocessing.get_start_method(), len(started))
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_package_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == f"{method} 1\n"
    for name in ("trace1.txt", "plan1.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("1", "2")).read_bytes()
    assert (tmp_path / "trace1.txt").read_text().count("replica=") == 4


def _running(pid: int) -> bool:
    """Whether the process exists and has not exited; a zombie has, and only waits to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read process states from")
@pytest.mark.parametrize("ending", ["exit", "kill"])
def test_no_replica_worker_outlives_its_process(toy_file, ending):
    """A process that searched with --jobs 2 keeps its worker while it
    lives; the worker is gone within 5 s of the process exiting normally,
    or of its being killed while the worker waits for work."""
    code = f"""\
import contextlib, io, multiprocessing, sys, time
import effgap.cli
argv = ["localsearch", {str(toy_file)!r}, "--k", "3", "--mu", "10", "--replicas", "2", "--jobs", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    assert effgap.cli.main(argv) == 0
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
if sys.argv[1] == "kill":
    time.sleep(60)
"""
    child = subprocess.Popen([sys.executable, "-c", code, ending], env=_package_env(),
                             stdout=subprocess.PIPE, text=True)
    with child:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        if ending == "kill":
            child.kill()
        assert child.wait(timeout=30) == (-signal.SIGKILL if ending == "kill" else 0)
    assert len(pids) == 1
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    outlived = [pid for pid in pids if _running(pid)]
    for pid in outlived:
        os.kill(pid, signal.SIGKILL)
    assert outlived == []


def test_the_parser_is_built_on_first_use_only(toy_file):
    """Importing the CLI builds no parser, so a child import (the benchmark's
    setup time) does not pay for one; the first ``main`` call builds the
    parser and its five subparsers, and later calls reuse them."""
    code = f"""\
import argparse, contextlib, io
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import effgap.cli as cli
seen = [(len(made), cli.build_parser.cache_info().currsize)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["stats", {str(toy_file)!r}]) == 0
    seen.append((len(made), cli.build_parser.cache_info().currsize))
print(seen)
"""
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
    assert out.stdout == "[(0, 0), (6, 1), (6, 1), (6, 1)]\n"


def _stderr_records(stderr: str) -> list:
    """stderr's lines, each manifest parsed and stripped of its wall times."""
    records: list = []
    for line in stderr.splitlines():
        if line.startswith("{"):
            line = json.loads(line)
            del line["wall_time_s"]
            line.pop("replica_wall_s", None)
        records.append(line)
    return records


def test_one_process_agrees_with_a_process_per_call(tmp_path, capsys):
    """Mixed ``main`` calls in this process, which share one parser, give each
    call the exit code, stdout, errors and manifest of the same command line
    in a fresh ``python -m effgap``: no call leaves parser state to the next."""
    wi, plan, grid = tmp_path / "wi.csv", tmp_path / "plan.csv", tmp_path / "grid.txt"
    wi.write_text(synth_state_csv("WI", 0))
    plan.write_text("district,county_id,assigned_district\n1,nowhere,1\n")
    grid.write_text("3 4 2\n" + "".join(f"{r} {c} {(r + c) % 3} 2\n" for r in range(3) for c in range(4)))
    calls = [
        ["stats", str(wi), "--json"],
        ["stats", str(wi), "--plan", str(plan)],
        ["localsearch", str(wi), "--exact", "--replicas", "2", "--jobs", "2", "--seed", "7"],
        ["localsearch", str(wi), "--seed", "3", "--mu", "40"],
        ["solve", str(grid), "--solver", "brute", "--delta-near", "1/10"],
        ["solve", str(grid), "--solver", "yconvex"],
        ["solve", str(grid), "--kappa"],
        ["gen-hardness", "1", "2", "3", "--scale", "4"],
        ["stats", str(wi), "--json"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, _stderr_records(captured.err)))
    assert [code for code, _, _ in in_process] == [0, 1, 0, 0, 0, 0, 1, 0, 0]
    for argv, ran in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "effgap", *argv], cwd=tmp_path,
                               env=_package_env(), capture_output=True, text=True)
        assert ran == (fresh.returncode, fresh.stdout, _stderr_records(fresh.stderr)), argv
    configs = [records[-1]["config"] for code, _, records in in_process if code == 0]
    assert [c["exact"] for c in configs[:3]] == [False, True, False]
    assert configs[4]["delta_near"] is None
    assert in_process[-1] == in_process[0]


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


COUNTY_HEADER = TOY_COUNTY_CSV.splitlines()[0]
PLAN_HEADER = "district,county_id,assigned_district"
# (defect, county file with it, plan file with it)
MALFORMED = [
    ("empty", "", ""),
    ("header only", COUNTY_HEADER + "\n", PLAN_HEADER + "\n"),
    ("bad header",
     "District,County,Republicans,Democrats,Neighbors\n1,A1,40,60,\n",
     "district,assigned_district\n1,1\n"),
    ("short row", TOY_COUNTY_CSV + "2,B3,Eps,1,1\n", PLAN_HEADER + "\n1\n"),
    ("long row",
     TOY_COUNTY_CSV.replace('"1:A2, 2:B1"', "1:A2, 2:B1"),  # unquoted Neighbors
     PLAN_HEADER + "\n1,A1,1,1\n"),
    ("bad token",
     TOY_COUNTY_CSV.replace('"1:A2, 2:B1"', '"1:A2, 2-B1"'),
     PLAN_HEADER + "\none,A1,1\n"),
    ("zero votes",  # more nodes than the default --k, so localsearch gets past its check
     re.sub(r"^(\d+,\w+,G),\d+,\d+,", r"\1,0,0,", county_grid_csv(0, 5, 2), flags=re.M),
     None),  # no plan file has this defect
]


@pytest.mark.parametrize("command, county_text, plan_text", [
    pytest.param(command, county_text, plan_text, id=f"{defect}-{command}")
    for defect, county_text, plan_text in MALFORMED
    for command in ("stats", "stats --plan", "localsearch")
    if plan_text is not None or command != "stats --plan"
])
def test_malformed_input_is_a_one_line_error(command, county_text, plan_text, toy_file,
                                             tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    if command == "stats --plan":
        bad.write_text(plan_text)
        argv = ["stats", str(toy_file), "--plan", str(bad)]
    else:
        bad.write_text(county_text)
        argv = [command, str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


def test_localsearch_validates_each_plan_once(toy_file, monkeypatch, capsys):
    """``run`` checks the start plan and ``plan_stats`` the search's result."""
    checked = []
    real = county.validate_plan

    def counting(graph, plan):
        checked.append(plan)
        return real(graph, plan)

    monkeypatch.setattr(county, "validate_plan", counting)
    monkeypatch.setattr(localsearch, "validate_plan", counting)
    for extra in ([], ["--replicas", "3"]):
        checked.clear()
        assert main(["localsearch", str(toy_file), "--k", "3", "--mu", "5", *extra]) == 0
        assert len(checked) == 2
    capsys.readouterr()


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


def test_localsearch_manifest_lists_replica_wall_times(tmp_path, capsys):
    """The manifest gains one wall time per replica; stdout does not change."""
    data, manifest = tmp_path / "grid.csv", tmp_path / "run.json"
    data.write_text(county_grid_csv(1, 8, 2))
    argv = ["localsearch", str(data), "--k", "5", "--mu", "30", "--seed", "4", "--replicas", "3"]
    for jobs in ("1", "2"):
        assert main(["--manifest", str(manifest), *argv, "--jobs", jobs]) == 0
        assert capsys.readouterr().out == (
            "            seats-D  seats-R   normalized gap\n"
            "original          3        1          23.56 %\n"
            "new               3        1           9.69 %\n"
            "best replica: 1 of 3; accepted moves: 9\n"
        )
        fields = json.loads(manifest.read_text())
        assert len(fields["replica_wall_s"]) == 3
        assert all(t > 0 for t in fields["replica_wall_s"])
        assert "replica_wall_s" not in fields["result"]


def _command_argv(command, tmp_path, toy_file):
    if command == "solve":
        grid = tmp_path / "grid.txt"
        grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
        return ["solve", str(grid)]
    if command == "localsearch":
        return ["localsearch", str(toy_file), "--k", "3", "--mu", "5"]
    return ["stats", str(toy_file)]


@pytest.mark.parametrize("command", ["stats", "localsearch", "solve"])
def test_unwritable_manifest_is_a_one_line_error(tmp_path, toy_file, capsys, command):
    manifest = tmp_path / "missing" / "run.json"
    assert main(["--manifest", str(manifest), *_command_argv(command, tmp_path, toy_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(manifest) in captured.err


@pytest.mark.parametrize("command, option", [
    ("localsearch", "--plan-out"), ("localsearch", "--trace-out"), ("solve", "--plan-out"),
])
def test_failed_output_write_prints_no_report(tmp_path, toy_file, capsys, command, option):
    """The output files are written before the report, so a failed write leaves stdout empty."""
    target = tmp_path / "missing" / "out.txt"
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), *_command_argv(command, tmp_path, toy_file), option, str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not manifest.exists()


def test_localsearch_negative_jobs_rejected(toy_file, tmp_path, capsys):
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), "localsearch", str(toy_file), "--k", "3", "--jobs", "-3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --jobs must be 0 (all cores) or positive, got -3\n"
    assert not manifest.exists()


def test_localsearch_negative_seed_rejected(toy_file, capsys):
    assert main(["localsearch", str(toy_file), "--k", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be non-negative\n")


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


@pytest.mark.parametrize("solver", ["brute", "yconvex"])
@pytest.mark.parametrize("kappa", [0, 5])
def test_solve_kappa_override_out_of_range(tmp_path, capsys, solver, kappa):
    grid = tmp_path / "grid.txt"
    grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), "solve", str(grid), "--solver", solver, "--kappa", str(kappa)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kappa must satisfy 1 <= kappa <= 4, got {kappa}\n"
    assert not manifest.exists()


@pytest.mark.parametrize("solver", ["brute", "yconvex"])
@pytest.mark.parametrize("kappa", [0, 5])
def test_solve_header_kappa_out_of_range(tmp_path, capsys, solver, kappa):
    """A header kappa outside 1..|P| fails as --kappa does, not as an infeasible instance."""
    grid = tmp_path / "grid.txt"
    grid.write_text(f"2 2 {kappa}\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    manifest = tmp_path / "run.json"
    assert main(["--manifest", str(manifest), "solve", str(grid), "--solver", solver]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kappa must satisfy 1 <= kappa <= 4, got {kappa}\n"
    assert not manifest.exists()


@pytest.mark.parametrize("solver", ["brute", "yconvex"])
def test_solve_kappa_override_one(tmp_path, capsys, solver):
    """--kappa 1 solves, as a header kappa of 1 does."""
    grid = tmp_path / "grid.txt"
    grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    assert main(["solve", str(grid), "--solver", solver, "--kappa", "1"]) == 0
    # One district holding everything: A=2, B=2, a tie, gap = |4*2 - 3*4| = 4.
    assert "value (scaled by 2): 4" in capsys.readouterr().out


def test_solve_kappa_override_replaces_header(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    manifest = tmp_path / "run.json"
    assert main(["--manifest", str(manifest), "solve", str(grid), "--kappa", "4"]) == 0
    assert json.loads(manifest.read_text())["result"]["kappa"] == 4


@pytest.mark.parametrize("solver", ["brute", "yconvex"])
@pytest.mark.parametrize("text, message", [
    ("1 3 2\n0 0 1 0\n0 2 0 1\n", "error: polygon disconnected at (0, 2)\n"),
    ("3 3 2\n" + "".join(f"{r} {c} 1 1\n" for r in range(3) for c in range(3) if (r, c) != (1, 1)),
     "error: polygon hole at (1, 1)\n"),
], ids=["disconnected", "hole"])
def test_solve_rejects_invalid_polygon(tmp_path, capsys, solver, text, message):
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert main(["solve", str(grid), "--solver", solver]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


NEAR_GRID = "1 3 2\n0 0 2 0\n0 1 1 1\n0 2 0 2\n"


def test_solve_brute_near_window(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(NEAR_GRID)
    assert main(["solve", str(grid), "--delta-near", "1/6"]) == 0
    assert capsys.readouterr().out == "status: optimal\nvalue (scaled by 2): 2\nvalue: 1\n"


@pytest.mark.parametrize("solver", ["yconvex", "canonical"])
def test_delta_near_is_brute_only(tmp_path, capsys, solver):
    """The other solvers solve the exact problem, so a slack they would ignore is an error."""
    grid = tmp_path / "grid.txt"
    grid.write_text(NEAR_GRID)
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), "solve", str(grid), "--solver", solver, "--delta-near", "1/6"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --delta-near applies to the brute solver only\n"
    assert not manifest.exists()


@pytest.mark.parametrize("votes", ["1 0", "1 1"])
@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_yconvex_multi_run_column_is_a_one_line_error(tmp_path, capsys, kappa, votes):
    grid = tmp_path / "grid.txt"
    cells = ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1))  # column 0 holds two runs
    grid.write_text(f"3 2 {kappa}\n" + "".join(f"{r} {c} {votes}\n" for r, c in cells))
    assert main(["solve", str(grid), "--solver", "yconvex"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: column 0 not y-convex-compatible\n"


@pytest.mark.parametrize("solver", ["brute", "yconvex"])
def test_kappa_one_plan_out_validates(tmp_path, capsys, solver):
    grid = tmp_path / "grid.txt"
    grid.write_text("2 2 2\n0 0 1 0\n0 1 1 0\n1 0 0 1\n1 1 0 1\n")
    plan = tmp_path / "plan.txt"
    assert main(["solve", str(grid), "--solver", solver, "--kappa", "1", "--plan-out", str(plan)]) == 0
    polygon, _ = read_instance(grid.read_text())
    assert validate_partition(polygon, read_partition(plan.read_text()), 1).ok


def test_readme_examples_parse():
    """Every ``effgap ...`` command in the README's shell block is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [
        line.split()[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("effgap ")
    ]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


MALFORMED_GRIDS = {
    "empty": "",
    "two-field header": "2 2\n0 0 1 1\n",
    "non-integer header": "2 x 2\n0 0 1 1\n",
    "three-field cell": "1 2 2\n0 0 1\n0 1 1 1\n",
    "duplicate cell": "1 2 2\n0 0 1 1\n0 0 1 1\n",
    "negative votes": "1 2 2\n0 0 -1 1\n0 1 1 1\n",
    "cell outside": "1 2 2\n0 0 1 1\n0 5 1 1\n",
    "zero dimension": "0 2 2\n",
    "disconnected": "1 3 2\n0 0 1 0\n0 2 0 1\n",
    "hole": "3 3 2\n" + "".join(f"{r} {c} 1 1\n" for r in range(3) for c in range(3) if (r, c) != (1, 1)),
}


@pytest.mark.parametrize("solver", ["brute", "yconvex", "canonical"])
@pytest.mark.parametrize("text", MALFORMED_GRIDS.values(), ids=MALFORMED_GRIDS)
def test_malformed_grid_is_a_one_line_error(tmp_path, capsys, solver, text):
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert main(["solve", str(grid), "--solver", solver]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def _mutated_instance(rng: random.Random, base: str) -> str:
    """`base` with one to three random edits: a field replaced, added or
    dropped, a line duplicated or deleted, or blank lines added."""
    lines = base.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        at = rng.randrange(len(lines))
        fields = lines[at].split()
        kind = rng.randrange(6)
        if kind == 0 and fields:
            fields[rng.randrange(len(fields))] = rng.choice(["0", "1", "2", "3", "7", "-1", "+2", "1.5", "x"])
        elif kind == 1:
            fields.insert(rng.randint(0, len(fields)), rng.choice(["0", "1", "2", "-1", "x"]))
        elif kind == 2 and fields:
            del fields[rng.randrange(len(fields))]
        elif kind == 3:
            lines.insert(at, lines[at])
            continue
        elif kind == 4:
            del lines[at]
            continue
        elif kind == 5:
            lines[at:at] = rng.choices(["", " ", "\t"], k=rng.randint(1, 2))
            continue
        lines[at] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_mutated_instances_parse_or_name_their_line(tmp_path, capsys):
    """``read_instance`` parses a mutated instance file or raises a
    ValueError naming a non-blank line of it, and every solver ends each
    file that parses with exit code 0, 1 or 2."""
    rng = random.Random(20)
    bases = [write_instance(gen_hardness_instance(values, decoys, seed=3).polygon, 2 + decoys)
             for values in ([4, 4], [4, 8, 4], [8, 4, 12]) for decoys in (0, 1)]
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
        votes = {(r, c): (rng.randint(0, 3), rng.randint(0, 3)) for r in range(m) for c in range(n)}
        bases.append(write_instance(polygon(votes), 2 + (m * n) % 2))
    grid = tmp_path / "grid.txt"
    codes = {0: 0, 1: 0, 2: 0}
    errors = 0
    for trial in range(1000):
        text = _mutated_instance(rng, bases[trial % len(bases)])
        try:
            read_instance(text)
        except ValueError as exc:
            message = str(exc)
            if message != "empty instance file":
                match = re.match(r"line (\d+): ", message)
                assert match, (text, message)
                assert text.splitlines()[int(match[1]) - 1].strip(), (text, message)
            errors += 1
            continue
        grid.write_text(text)
        for solver in ("brute", "yconvex", "canonical"):
            code = main(["solve", str(grid), "--solver", solver])
            assert code in codes, (text, solver, code)
            codes[code] += 1
        capsys.readouterr()
    assert errors and all(codes.values()), (errors, codes)
    print(f"1000 mutated instances: {errors} rejected by read_instance; solve exit codes {codes}")


@pytest.mark.parametrize("option", ["--epsilon", "--delta-near"])
@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_fraction_option_is_a_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "grid.txt", option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"effgap solve: error: argument {option}: invalid Fraction value: '{value}'"
    assert "Traceback" not in err


def test_usage_error_and_infeasible_instance_have_their_own_codes(tmp_path, capsys):
    """A bad command line exits 1, like every other bad input, and an
    infeasible instance exits 2, in this process and in a fresh one;
    ``--help`` still exits 0."""
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 2\n0 0 1 0\n0 1 0 2\n")
    usage, infeasible = ["solve", str(grid), "--kappa"], ["solve", str(grid)]
    with pytest.raises(SystemExit) as exc:
        main(usage)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "effgap solve: error: argument --kappa: expected one argument"
    assert main(infeasible) == 2
    assert capsys.readouterr().out == "status: infeasible\n"
    for argv, code in ((usage, 1), (infeasible, 2), (["solve", "--help"], 0), (["frob"], 1)):
        fresh = subprocess.run([sys.executable, "-m", "effgap", *argv], env=_package_env(),
                               capture_output=True, text=True)
        assert fresh.returncode == code, (argv, fresh.stderr)
        assert "Traceback" not in fresh.stderr


def test_solve_infeasible_exit(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 2\n0 0 1 0\n0 1 0 2\n")
    for solver in ("brute", "yconvex"):
        assert main(["solve", str(grid), "--solver", solver]) == 2
        captured = capsys.readouterr()
        assert captured.out == "status: infeasible\n"
        result = json.loads(captured.err)["result"]
        assert result == {"kappa": 2, "solver": solver, "status": "infeasible"}


def test_oracle_limit_is_a_one_line_error(tmp_path, capsys):
    """An instance above ``--oracle-limit`` fails like every other bad input:
    one ``error:`` line and exit 1, with no manifest on stderr or in the
    ``--manifest`` file."""
    grid = tmp_path / "gadget.txt"
    assert main(["gen-hardness", "1", "2", "3", "4", "5", "6", "--scale", "4", "-o", str(grid)]) == 0
    capsys.readouterr()
    manifest = tmp_path / "run.json"
    for extra in ([], ["--manifest", str(manifest)]):
        assert main([*extra, "solve", str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance too large for oracle (21 cells > limit 14)\n"
    assert not manifest.exists()


def test_every_command_manifest_has_the_listed_keys(toy_file, tmp_path, capsys):
    """README "Command line" lists the manifest keys; only ``localsearch``
    adds ``replica_wall_s``, ``replica_stopped_at`` and ``replica_sweeps``,
    and names its random generator, in ``result``.
    ``inputs`` maps each input file to its SHA-256, both files for
    ``stats --plan``."""
    keys = {"command", "config", "inputs", "result", "version", "wall_time_s"}
    grid, plan, out = tmp_path / "g.txt", tmp_path / "plan.csv", tmp_path / "out.csv"
    runs = [
        (["synth-data", "WI", "-o", str(out)], []),
        (["gen-hardness", "3", "5", "8", "--scale", "4", "-o", str(grid)], []),
        (["solve", str(grid)], [grid]),
        (["localsearch", str(toy_file), "--mu", "2", "--k", "2", "--plan-out", str(plan)], [toy_file]),
        (["stats", str(toy_file)], [toy_file]),
        (["stats", str(toy_file), "--plan", str(plan)], [toy_file, plan]),
    ]
    manifest_path = tmp_path / "run.json"
    for argv, inputs in runs:
        assert main(["--manifest", str(manifest_path), *argv]) == 0
        manifest = json.loads(manifest_path.read_text())
        search = argv[0] == "localsearch"
        replica_keys = {"replica_wall_s", "replica_stopped_at", "replica_sweeps"}
        assert set(manifest) == keys | (replica_keys if search else set()), argv
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs
        }
        assert ("rng" in manifest["result"]) == search
    capsys.readouterr()


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


@pytest.mark.parametrize("to_file", [True, False], ids=["-o", "stdout"])
def test_gen_hardness_failure_writes_nothing(tmp_path, capsys, to_file):
    """Values the gadget cannot take fail before any output."""
    out = tmp_path / "gadget.txt"
    argv = ["gen-hardness", "10", "30"] + (["-o", str(out)] if to_file else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: value 10 not divisible by 4; scale inputs by 4 (hint: pass --scale 4)\n"
    assert not out.exists()


@pytest.mark.parametrize("count, split", [(31, False), (32, True)])
def test_gen_hardness_equal_split_past_30_values(tmp_path, capsys, count, split):
    """The subset-sum oracle takes any number of values: 31 fours total 124,
    whose half 62 no set of fours makes; 32 fours split 16 and 16."""
    out, manifest = tmp_path / "gadget.txt", tmp_path / "run.json"
    assert main(["--manifest", str(manifest), "gen-hardness", *["4"] * count, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    result = json.loads(manifest.read_text())["result"]
    assert result["has_equal_split"] is split and result["values_total"] == 4 * count
    assert read_instance(out.read_text())[1] == 2


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


@pytest.mark.parametrize("solver", ["brute", "canonical"])
def test_solve_builds_the_mask_index_once(tmp_path, capsys, monkeypatch, solver):
    """validate_polygon and the solver share the polygon's one mask index."""
    built = []
    of_polygon = _MaskIndex.of_polygon.__func__

    def counting(cls, p):
        built.append(p)
        return of_polygon(cls, p)

    monkeypatch.setattr(_MaskIndex, "of_polygon", classmethod(counting))
    grid = tmp_path / "grid.txt"
    grid.write_text("3 4 2\n" + "".join(f"{r} {c} {(r + c) % 3} 2\n" for r in range(3) for c in range(4)))
    assert main(["solve", str(grid), "--solver", solver]) == 0
    assert "status: optimal" in capsys.readouterr().out
    assert len(built) == 1


def test_solve_brute_converts_only_the_first_optimum(tmp_path, capsys, monkeypatch):
    """solve --solver brute writes the optimum count and the first optimum
    from the oracle's class masks; the GridPartition tuple is built only
    when ``partitions`` is read, which the command never does."""
    results = []

    def recording(*args, **kwargs):
        results.append(brute_force_opt(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "brute_force_opt", recording)
    grid, plan, manifest = tmp_path / "grid.txt", tmp_path / "plan.txt", tmp_path / "run.json"
    grid.write_text("3 4 3\n" + "".join(f"{r} {c} {(r * c) % 3} {2 - (r * c) % 3}\n" for r in range(3) for c in range(4)))
    argv = ["--manifest", str(manifest), "solve", str(grid), "--solver", "brute", "--plan-out", str(plan)]
    assert main(argv) == 0
    assert "status: optimal" in capsys.readouterr().out
    (res,) = results
    assert "partitions" not in vars(res)
    p, kappa = read_instance(grid.read_text())
    fresh = brute_force_opt(p, kappa)
    assert "partitions" not in vars(fresh)
    partitions = fresh.partitions
    assert "partitions" in vars(fresh) and fresh.partitions is partitions
    assert len(partitions) > 1
    assert json.loads(manifest.read_text())["result"]["optima"] == len(partitions)
    assert plan.read_text() == write_partition(partitions[0])


def test_solve_canonical_manifest_counters(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    lines = ["6 6 2"]
    for r in range(6):
        for c in range(6):
            a = 4 if (r, c) in {(2, 2), (2, 3), (3, 2), (3, 3)} else 0
            lines.append(f"{r} {c} {a} {4 - a}")
    grid.write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), "solve", str(grid), "--solver", "canonical",
            "--epsilon", "1/5"]
    assert main(argv) == 0
    # stdout as the per-pair loop printed it, before the counters existed.
    assert capsys.readouterr().out == (
        "nearness achieved: 1/36 (bound 4/5)\n"
        "stability ratio: -1/2\n"
        "status: optimal\n"
        "value (scaled by 2): 80\n"
        "value: 40\n"
    )
    result = json.loads(manifest.read_text())["result"]
    passes = result["canonical"]
    assert passes == {
        "case1": {"candidates": 15, "in_window": 15, "checks": 1},
        "canonical": {"candidates": 5, "in_window": 5, "checks": 1},
    }
    assert passes[result["source"]]["checks"] >= 1


def test_solve_canonical_oversized_interior(tmp_path, capsys):
    # At t=5 a 9x9 grid is one ragged block with a 25-cell interior.
    grid = tmp_path / "sq9.txt"
    grid.write_text("9 9 2\n" + "".join(f"{r} {c} 1 1\n" for r in range(9) for c in range(9)))
    manifest = tmp_path / "run.json"
    argv = ["--manifest", str(manifest), "solve", str(grid), "--solver", "canonical",
            "--epsilon", "1/5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: block 0 (rows 0-8, cols 0-8) has 25 interior cells; "
        "subset enumeration allows at most 16\n"
    )
    assert not manifest.exists()


def test_solve_epsilon_is_the_only_accuracy_option(tmp_path, capsys):
    assert build_parser().parse_args(["solve", "g.txt"]).epsilon == Fraction(1, 3)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "g.txt", "--t", "4"])
    capsys.readouterr()
    grid = tmp_path / "grid.txt"
    grid.write_text("6 6 2\n" + "".join(f"{r} {c} 1 1\n" for r in range(6) for c in range(6)))
    assert main(["solve", str(grid), "--solver", "canonical", "--epsilon", "0"]) == 1
    assert capsys.readouterr().err == "error: epsilon must be positive\n"


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
