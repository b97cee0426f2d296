"""Benchmark for the effgap command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--write-golden]

Run from the root of a checkout: the package is imported from ``src/``
(the run fails when that is missing).  Each case is one in-process
``effgap.cli.main(argv)`` call on inputs generated from the seed; its output
is checked outside the timed interval.  The timed phase runs whole passes
over the workload's case list until ``--seconds`` of case time has gone by.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass with every layer's public functions wrapped, and
reports the per-layer metrics.  Either way the last line of stdout is one
JSON object; the lines before it are a readable report.  Span and per-case
records go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Percentile reported as case_ms_tail, fixed per workload so that a faster or
# slower commit reports the same statistic: the highest of p99, p98, p95, p90,
# p75 that leaves at least ten samples beyond it in a run of BENCHMARK.json's
# length at the commit that set it.  The report states how many lie beyond.
TAIL_PERCENTILE = {"county-search": 90, "county-stats": 98, "grid-exact": 75, "grid-canonical": 90}
SETUP_IMPORTS = 11
# Timed end-to-end metrics are scaled to a machine on which reference_seconds()
# takes REFERENCE_S; see reference_seconds() for why.
REFERENCE_S = 0.005
REFERENCE_SAMPLES = 60

E2E_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Running and checking cases
# ---------------------------------------------------------------------------


def run_case(case):
    """(seconds, Outcome) of one cli.main call; only the call is timed."""
    from workloads import Outcome, cli

    for path in case.outputs.values():
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.argv)
    except (Exception, SystemExit) as exc:  # a raising case is a failed case
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    files = {role: path.read_text() for role, path in case.outputs.items() if path.exists()}
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), files, error)


def check_case(case, outcome) -> list[str]:
    if outcome.error:
        return [outcome.error]
    try:
        return case.check(outcome)
    except (Exception, SystemExit) as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def fingerprint(outcome) -> dict:
    """Exit code, output digests and manifest result: what must not vary."""
    try:
        result = outcome.manifest()["result"]
    except (ValueError, IndexError, KeyError):
        result = None
    return {
        "exit_code": outcome.code,
        "stdout_sha256": digest(outcome.stdout),
        "files_sha256": {role: digest(text) for role, text in sorted(outcome.files.items())},
        "result": result,
    }


class Pass:
    """The outcome of running every case once."""

    def __init__(self, cases, tracer=None, after_case=None):
        self.times: list[float] = []
        self.outcomes = {}
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.case_id = i
            dt, self.outcomes[case.id] = run_case(case)
            self.times.append(dt)
            if after_case is not None:
                after_case(dt)
        self.seconds = sum(self.times)

    def check(self, workload) -> dict[str, list[str]]:
        """Full checks of every case plus the workload's cross-case checks."""
        problems = {c.id: check_case(c, self.outcomes[c.id]) for c in workload.cases}
        try:
            for case_id, msg in workload.cross_check(self.outcomes):
                problems[case_id].append(msg)
        except (Exception, SystemExit) as exc:
            for msgs in problems.values():
                msgs.append(f"cross-check raised {type(exc).__name__}: {exc}")
        return problems

    def compare(self, reference: dict[str, dict]) -> dict[str, list[str]]:
        """Repeated passes must reproduce the checked first pass exactly."""
        return {
            case_id: [] if fingerprint(o) == reference[case_id] else ["output differs from the first pass"]
            for case_id, o in self.outcomes.items()
        }


def case_records(workload, first: Pass, problems: dict, work: Path, times: list[float]) -> dict:
    """Per case: fingerprint, argv, problems, and its seconds in every pass."""
    records = {}
    m = len(workload.cases)
    for i, case in enumerate(workload.cases):
        rec = fingerprint(first.outcomes[case.id])
        rec["argv"] = [a.replace(str(work), "<work>") for a in case.argv]
        rec["seconds"] = times[i::m]
        rec["pinned"] = case.pin_output
        rec["problems"] = problems[case.id]
        rec.update(case.info)
        records[case.id] = rec
    return records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time for a fresh interpreter to import effgap.cli, measured in the child."""
    code = "import time; t = time.perf_counter(); import effgap.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# A fixed pure-Python job like the program's own hot loop: breadth-first
# search over a dict-of-lists graph with a visited set.
_REF_SIDE = 50
_REF_GRAPH = {
    (i, j): [(i + di, j + dj) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
             if 0 <= i + di < _REF_SIDE and 0 <= j + dj < _REF_SIDE]
    for i in range(_REF_SIDE) for j in range(_REF_SIDE)
}


def reference_seconds() -> float:
    """Time of a fixed job that no effgap change can alter: the machine's speed.

    On a machine shared with other work (two shared cores, where this was
    tuned) the speed drifts by up to a quarter on a scale of seconds to
    minutes, and every case time drifts with it.  Dividing by this job's mean
    time, sampled evenly over the case time of the same run, cancels most of
    that drift.  The mean, not the median: the job's time jumps between
    levels, and total case time adds up every level in proportion.
    """
    started = time.perf_counter()
    for _ in range(3):
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            reached = []
            for node in frontier:
                for nb in _REF_GRAPH[node]:
                    if nb not in seen:
                        seen.add(nb)
                        reached.append(nb)
            frontier = reached
    return time.perf_counter() - started


class Sampler:
    """`count` measurements spread evenly over `seconds` of case time, between cases.

    Measurements made back to back all see one phase of the machine's speed;
    spread over the run they see the same mix of phases as the cases do.  At
    most one follows each case, so two measurements of a kind never run back
    to back during the run; any still missing at the end are taken then.
    """

    def __init__(self, measure, count: int, seconds: float):
        self.measure, self.count, self.every = measure, count, seconds / count
        self.samples: list[float] = []

    def tick(self, case_time: float) -> None:
        if len(self.samples) < self.count and case_time >= self.every * len(self.samples):
            self.samples.append(self.measure())

    def finish(self) -> list[float]:
        while len(self.samples) < self.count:
            self.samples.append(self.measure())
        return self.samples


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples.

    A weighted average of the order statistics around rank q*n.  Case costs
    come in groups (one per instance type), and a single order statistic
    jumps when the rank sits near the edge of a group; the weighted average
    moves smoothly instead.
    """
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def end_to_end(workload_name: str, times: list[float], failed: int, setup_s: float,
               reference_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, timings scaled to the reference speed, and report lines."""
    ordered = sorted(t * 1000 for t in times)
    n = len(times)
    q = TAIL_PERCENTILE[workload_name]
    beyond = n - math.ceil(q * n / 100)
    measured = {
        "setup_s": setup_s,
        "cases_per_s": n / sum(times),
        "case_ms_p50": quantile(ordered, 0.5),
        "case_ms_tail": quantile(ordered, q / 100),
    }
    scale = REFERENCE_S / reference_s
    metrics = {name: value / scale if name == "cases_per_s" else value * scale for name, value in measured.items()}
    metrics["pass_ratio"] = (n - failed) / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "setup_s": f"median of {SETUP_IMPORTS} child imports spread over the run",
        "cases_per_s": f"n={n}",
        "case_ms_p50": f"n={n}",
        "case_ms_tail": f"p{q}, n={n}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than ten)"),
        "pass_ratio": f"fail_ratio={failed / n} ({failed} of {n} failed)",
        "peak_rss_mb": "this process, ru_maxrss",
    }
    lines = [f"reference job: mean {reference_s * 1000:.4f} ms of {REFERENCE_SAMPLES}; timings scaled by "
             f"{scale:.4f} to a {REFERENCE_S * 1000:g} ms machine (measured values in brackets)"]
    lines += [f"{name:<14} {metrics[name]:>14.6f} {E2E_UNITS[name]:<6} "
              + (f"[{measured[name]:.6f}] " if name in measured else "") + notes[name] for name in metrics]
    return metrics, lines


def environment() -> str:
    import numpy

    import effgap

    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} effgap={effgap.__version__}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict, unit) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def build(name: str, seed: int, work: Path, small: bool, tracer=None):
    """Generate the inputs; with a tracer, only input generation is traced."""
    from workloads import WORKLOADS

    if tracer is not None:
        tracer.install(only={"synthdata"})
    try:
        return WORKLOADS[name](seed, work, small)
    finally:
        if tracer is not None:
            tracer.uninstall()


def checked_pass(workload, after_case=None) -> tuple[Pass, dict, dict, set]:
    """(first pass, problems per case, reference fingerprints, ids of failed cases)."""
    gc.collect()
    first = Pass(workload.cases, after_case=after_case)
    problems = first.check(workload)
    reference = {case_id: fingerprint(o) for case_id, o in first.outcomes.items()}
    return first, problems, reference, {case_id for case_id, p in problems.items() if p}


def add_repeat_problems(problems: dict, later: Pass, reference: dict, first_failed: set, label: str) -> int:
    """Compare a repeated pass with the reference; returns its failed cases.

    A case fails in a repeated pass when its output differs from the first
    pass, or when it failed its checks in the first pass: reproducing a wrong
    output is still a failure.
    """
    failed = set(first_failed)
    for case_id, msgs in later.compare(reference).items():
        for msg in msgs:
            if f"{label}{msg}" not in problems[case_id]:
                problems[case_id].append(f"{label}{msg}")
        if msgs:
            failed.add(case_id)
    return len(failed)


def timed_run(name: str, seed: int, seconds: float, work: Path) -> int:
    workload = build(name, seed, work, small=False)
    import_seconds()  # the first import may compile bytecode; users pay that once
    samplers = [Sampler(import_seconds, SETUP_IMPORTS, seconds),
                Sampler(reference_seconds, REFERENCE_SAMPLES, seconds)]
    case_time = 0.0

    def after_case(dt: float) -> None:
        nonlocal case_time
        case_time += dt
        for sampler in reversed(samplers):  # the reference job first, before a child import cools the caches
            sampler.tick(case_time)

    first, problems, reference, first_failed = checked_pass(workload, after_case)
    failed = len(first_failed)
    times, pass_seconds = list(first.times), [first.seconds]
    while sum(pass_seconds) < seconds:
        gc.collect()
        later = Pass(workload.cases, after_case=after_case)
        times += later.times
        pass_seconds.append(later.seconds)
        failed += add_repeat_problems(problems, later, reference, first_failed, "")
    write_json(OUT / f"cases-{name}.json", case_records(workload, first, problems, work, times))
    setup, reference = (sampler.finish() for sampler in samplers)
    metrics, lines = end_to_end(name, times, failed, statistics.median(setup), statistics.fmean(reference))
    print(f"perfbench {name} seed={seed} trace=0: {len(times)} cases in {len(pass_seconds)} passes "
          f"of {len(workload.cases)}, {failed} failed; seconds per pass: "
          + " ".join(f"{s:.3f}" for s in pass_seconds))
    print(f"env {environment()}")
    print("\n".join(lines))
    report_problems(problems)
    emit(failed == 0, len(times), failed, metrics, E2E_UNITS.get)
    return 0


class Traced(NamedTuple):
    metrics: dict
    attempted: int
    failed: int
    problems: dict
    records: dict
    plain_times: list


def traced_run(name: str, seed: int, work: Path, small: bool = False) -> Traced:
    """One untraced pass, checked, then the same pass traced."""
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    workload = build(name, seed, work, small, tracer)
    plain, problems, reference, first_failed = checked_pass(workload)
    gc.collect()
    tracer.install()
    try:
        traced = Pass(workload.cases, tracer)
    finally:
        tracer.uninstall()
    failed = len(first_failed) + add_repeat_problems(problems, traced, reference, first_failed, "traced run: ")
    tracer.write_spans(OUT / f"spans-{name}.csv")
    return Traced(per_layer_metrics(tracer, plain.seconds, traced.seconds), 2 * len(workload.cases),
                  failed, problems, case_records(workload, plain, problems, work, plain.times), plain.times)


def report_problems(problems: dict) -> None:
    for case_id, msgs in problems.items():
        for msg in msgs:
            print(f"FAIL {case_id}: {msg}")


def write_json(path: Path, data) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def pinned(records: dict) -> dict:
    """The part of the case records a later commit must reproduce.

    Canonical-solver cases keep only their exit code: the solver's value is
    expected to change when its decomposition is repaired.
    """
    return {cid: {k: rec[k] for k in (("exit_code", "stdout_sha256", "files_sha256", "result")
                                       if rec["pinned"] else ("exit_code",))}
            for cid, rec in records.items()}


def self_check(work: Path, write_golden: bool) -> int:
    """Every workload once at reduced size: all checks pass, all metrics emitted."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() and not write_golden else {}
    record, failures = {}, []
    for name in WORKLOADS:
        sub = work / name
        sub.mkdir()
        run = traced_run(name, 0, sub, small=True)
        report_problems(run.problems)
        layer, failed, records = run.metrics, run.failed, run.records
        e2e, _ = end_to_end(name, run.plain_times, failed, import_seconds(), reference_seconds())
        if failed:
            failures.append(f"{name}: {failed} cases failed")
        if {k: E2E_UNITS[k] for k in e2e} != want_e2e:
            failures.append(f"{name}: end-to-end metrics differ from BENCHMARK.json")
        if {k: layer_unit(k) for k in layer} != want_layer:
            failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        record[name] = pinned(records)
        if golden and golden.get(name) != record[name]:
            diff = sorted(c for c in record[name] if golden.get(name, {}).get(c) != record[name][c])
            failures.append(f"{name}: outputs differ from golden.json in {diff}")
        print(f"self-check {name}: {len(records)} cases, {failed} failed, "
              f"{len(e2e)} end-to-end and {len(layer)} per-layer metrics")
    if write_golden:
        write_json(golden_path, record)
        print(f"wrote {golden_path.relative_to(ROOT)}")
    elif not golden:
        failures.append("perfbench/golden.json missing")
    for f in failures:
        print(f"self-check FAILED: {f}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload once at reduced size")
    parser.add_argument("--write-golden", action="store_true", help="with --self-check: record outputs")
    args = parser.parse_args(argv)
    if not (SRC / "effgap" / "cli.py").is_file():
        print(f"perfbench: no effgap sources at {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if not args.self_check and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.self_check:
            return self_check(work, args.write_golden)
        if args.trace == 0:
            return timed_run(args.workload, args.seed, args.seconds, work)
        run = traced_run(args.workload, args.seed, work)
        write_json(OUT / f"cases-{args.workload}-traced.json", run.records)
        print(f"perfbench {args.workload} seed={args.seed} trace=1: {run.attempted} cases "
              f"(one pass untraced, one traced), {run.failed} failed")
        print(f"env {environment()}")
        for name, value in run.metrics.items():
            print(f"{name:<40} {value:>16.6f} {layer_unit(name)}")
        report_problems(run.problems)
        emit(run.failed == 0, run.attempted, run.failed, run.metrics, layer_unit)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
