"""Command-line surface: statistics, local search, grid solvers, generators.

Every run that does not fail emits one run manifest (JSON) describing the
command, input digests, configuration, tool version and result summary;
a manifest plus the inputs reproduces the run.  Manifests go to stderr
by default so stdout stays byte-stable for diffing; ``--manifest``
redirects them to a file.  A command writes its output files and the
manifest file before it prints anything, so a failed command leaves
stdout empty, prints one ``error:`` line and emits no manifest.
Percentages print with two decimals; ``--exact`` adds the underlying
rationals.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import total_effgap, wasted_votes
from .county import district_votes, ingest, plan_stats, read_plan_csv, write_plan_csv
from .grid import (
    ORACLE_CELL_LIMIT,
    _masks_to_partition,
    brute_force_opt,
    gen_hardness_instance,
    population_window,
    read_instance,
    subset_sum_oracle,
    validate_polygon,
    write_instance,
    write_partition,
)
from .canonical import solve_two_near_stable
from .localsearch import RNG_ALGORITHM, SearchConfig, run
from .synthdata import STATE_PROFILES, synth_state_csv
from .yconvex import solve_yconvex

DATA_DIR_ENV = "EFFGAP_DATA_DIR"


def format_percent(x: Fraction) -> str:
    bp = round(x * 10000)
    sign = "-" if bp < 0 else ""
    bp = abs(bp)
    return f"{sign}{bp // 100}.{bp % 100:02d} %"


def format_half(scaled: int) -> str:
    """A value stored as twice its magnitude, printed exactly."""
    sign = "-" if scaled < 0 else ""
    q, r = divmod(abs(scaled), 2)
    return f"{sign}{q}.5" if r else f"{sign}{q}"


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        base = os.environ.get(DATA_DIR_ENV)
        if base and not p.is_absolute():
            candidate = Path(base) / p
            if candidate.exists():
                return candidate
    return p


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ingest_path(path: Path):
    result = ingest(path.read_text())
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return result


def cmd_stats(args: argparse.Namespace) -> tuple[int, dict, list[Path], str]:
    data_path = _resolve(args.data)
    result = _ingest_path(data_path)
    graph, plan = result.graph, result.plan
    inputs = [data_path]
    if args.plan:
        plan_path = _resolve(args.plan)
        plan = read_plan_csv(graph, plan_path.read_text())
        inputs.append(plan_path)
    stats = plan_stats(graph, plan)
    out = []
    if not args.json:
        out.append(
            f"{'district':>8}  {'democrats':>10}  {'gop':>10}  {'population':>11}  "
            f"{'winner':>6}  {'wasted-d':>12}  {'wasted-r':>12}  {'gap':>12}"
        )
    for d, stat in zip(graph.district_ids, stats.per_district):
        votes = stat.votes
        wasted_d, wasted_r = wasted_votes(votes)
        winner = "D" if stat.a_wins else "R"
        if args.json:
            out.append(json.dumps({
                "district": d,
                "democrats": votes.party_a,
                "gop": votes.party_b,
                "population": votes.population(),
                "winner": winner,
                "wasted_d": str(Fraction(wasted_d, 2)),
                "wasted_r": str(Fraction(wasted_r, 2)),
                "scaled_gap": stat.scaled_effgap,
            }, sort_keys=True))
        else:
            out.append(
                f"{d:>8}  {votes.party_a:>10}  {votes.party_b:>10}  {votes.population():>11}  "
                f"{winner:>6}  {format_half(wasted_d):>12}  "
                f"{format_half(wasted_r):>12}  {format_half(stat.scaled_effgap):>12}"
            )
    total = graph.total_votes()
    pop = total.population()
    share_d = Fraction(total.party_a, pop)
    out.append(f"vote share: Democrats {format_percent(share_d)} / GOP {format_percent(1 - share_d)}")
    out.append(f"seats: Democrats {stats.seats_a} / GOP {stats.seats_b}")
    out.append(f"normalized efficiency gap: {format_percent(stats.normalized)}")
    if args.exact:
        out.append(f"exact normalized gap: {stats.normalized}")
        out.append(f"total gap (scaled by 2): {stats.total_scaled_abs}")
    summary = {
        "normalized_bp": str(round(stats.normalized * 10000)),
        "seats_a": stats.seats_a,
        "seats_b": stats.seats_b,
        "total_scaled_abs": stats.total_scaled_abs,
    }
    return 0, {"result": summary}, inputs, "\n".join(out) + "\n"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_localsearch(args: argparse.Namespace) -> tuple[int, dict, list[Path], str]:
    if args.jobs < 0:
        raise ValueError(f"--jobs must be 0 (all cores) or positive, got {args.jobs}")
    data_path = _resolve(args.data)
    result = _ingest_path(data_path)
    graph, plan0 = result.graph, result.plan
    cfg = SearchConfig(mu=args.mu, k=args.k, seed=args.seed, replicas=args.replicas)
    jobs = args.jobs if args.jobs > 0 else _usable_cpus()
    run_result = run(graph, plan0, cfg, jobs=jobs)  # validates plan0
    before = total_effgap(list(district_votes(graph, plan0).values()))
    best_trace = run_result.traces[run_result.best_replica]
    after = plan_stats(graph, best_trace.final_plan)
    out = [
        f"{'':10}  {'seats-D':>7}  {'seats-R':>7}  {'normalized gap':>15}",
        f"{'original':10}  {before.seats_a:>7}  {before.seats_b:>7}  {format_percent(before.normalized):>15}",
        f"{'new':10}  {after.seats_a:>7}  {after.seats_b:>7}  {format_percent(after.normalized):>15}",
    ]
    out.append(
        f"best replica: {run_result.best_replica} of {cfg.replicas}; "
        f"accepted moves: {len(best_trace.moves)}"
    )
    if args.exact:
        out.append(f"exact normalized gap: original {before.normalized}, new {after.normalized}")
    if args.plan_out:
        Path(args.plan_out).write_text(write_plan_csv(graph, best_trace.final_plan))
    if args.trace_out:
        Path(args.trace_out).write_text("".join(t.to_lines() for t in run_result.traces))
    summary = {
        "original_bp": str(round(before.normalized * 10000)),
        "new_bp": str(round(after.normalized * 10000)),
        "best_replica": run_result.best_replica,
        "rng": RNG_ALGORITHM,
    }
    traces = run_result.traces
    fields = {
        "result": summary,
        "replica_wall_s": [round(t.wall_time, 6) for t in traces],
        "replica_stopped_at": [t.stopped_at for t in traces],
        "replica_sweeps": [t.sweeps for t in traces],
    }
    return 0, fields, [data_path], "\n".join(out) + "\n"


def cmd_solve(args: argparse.Namespace) -> tuple[int, dict, list[Path], str]:
    if args.delta_near is not None and args.solver != "brute":
        raise ValueError("--delta-near applies to the brute solver only")
    grid_path = _resolve(args.grid)
    polygon, kappa = read_instance(grid_path.read_text())
    report = validate_polygon(polygon)
    if not report.ok:
        where = f" at {report.witness}" if report.witness is not None else ""
        raise ValueError(f"polygon {report.reason}{where}")
    if args.kappa is not None:
        kappa = args.kappa
    if not 1 <= kappa <= polygon.size:
        raise ValueError(f"kappa must satisfy 1 <= kappa <= {polygon.size}, got {kappa}")
    summary: dict = {"solver": args.solver, "kappa": kappa}
    out = []
    if args.solver == "brute":
        window = None
        if args.delta_near is not None:
            window = population_window(polygon.total_votes().population(), kappa, args.delta_near)
        res = brute_force_opt(polygon, kappa, window, cell_limit=args.oracle_limit)
        value = res.value
        if value is not None:
            partition = _masks_to_partition(res.index, res.optima[0])  # the others are never read
            summary["optima"] = len(res.optima)
    elif args.solver == "yconvex":
        res = solve_yconvex(polygon, kappa)
        value = res.value
        partition = res.partition
    elif args.solver == "canonical":
        if kappa != 2:
            raise ValueError("canonical solver is defined for kappa = 2 only")
        res = solve_two_near_stable(polygon, args.epsilon)
        value = res.plan.value
        partition = res.plan.partition
        summary["delta_achieved"] = str(res.delta_achieved)
        summary["delta_bound"] = str(res.delta_bound)
        summary["source"] = res.plan.source
        summary["canonical"] = {name: asdict(c) for name, c in res.passes.items()}
        out.append(f"nearness achieved: {res.delta_achieved} (bound {res.delta_bound})")
        if res.stability is not None:
            out.append(f"stability ratio: {res.stability}")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown solver {args.solver}")
    if value is None:
        summary["status"] = "infeasible"
        return 2, {"result": summary}, [grid_path], "status: infeasible\n"
    out += ["status: optimal", f"value (scaled by 2): {value}", f"value: {format_half(value)}"]
    if args.exact:
        out.append(f"exact value: {Fraction(value, 2)}")
    if args.plan_out:
        Path(args.plan_out).write_text(write_partition(partition))
    summary["status"] = "optimal"
    summary["value_scaled"] = value
    return 0, {"result": summary}, [grid_path], "\n".join(out) + "\n"


def cmd_gen_hardness(args: argparse.Namespace) -> tuple[int, dict, list[Path], str]:
    values = [v * args.scale for v in args.values]
    try:
        instance = gen_hardness_instance(values, args.decoys, args.seed)
    except ValueError as exc:
        if "divisible by 4" in str(exc):
            raise ValueError(f"{exc} (hint: pass --scale 4)") from exc
        raise
    summary = {
        "cells": instance.polygon.size,
        "kappa": instance.kappa,
        "values_total": instance.values_total,
        "has_equal_split": subset_sum_oracle(values),
    }
    text = write_instance(instance.polygon, instance.kappa)
    if args.output:
        Path(args.output).write_text(text)
    return 0, {"result": summary}, [], "" if args.output else text


def cmd_synth_data(args: argparse.Namespace) -> tuple[int, dict, list[Path], str]:
    text = synth_state_csv(args.state, args.seed)
    if args.output:
        Path(args.output).write_text(text)
    summary = {"state": args.state, "rows": text.count("\n") - 1}
    return 0, {"result": summary}, [], "" if args.output else text


def _fraction(text: str) -> Fraction:
    """``Fraction(text)`` for argparse: a zero denominator is rejected like any malformed text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the code of every other bad input.

    argparse would exit 2, which ``solve`` gives an infeasible instance.
    The usage line and the ``prog: error: message`` line are argparse's;
    subcommand parsers are made of this class too.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and shared by every ``main`` call.

    Reuse is safe because ``parse_args`` makes a new namespace per call and
    every default is immutable (``None``, ints, ``Fraction(1, 3)``).
    """
    parser = _Parser(
        prog="effgap",
        description="Compute and minimize the efficiency-gap measure of district plans.",
    )
    parser.add_argument("--manifest", help="write the run manifest to a file instead of stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="efficiency-gap report for a county data file")
    p.add_argument("data", help="county CSV (resolved against $" + DATA_DIR_ENV + ")")
    p.add_argument("--plan", help="plan CSV overriding the data file's districts")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true", help="line-delimited records instead of a table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("localsearch", help="randomized improvement search on a county file")
    p.add_argument("data")
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--mu", type=int, default=SearchConfig.mu,
                   help="at most this many outer iterations (default %(default)s)")
    p.add_argument("--k", type=int, default=SearchConfig.k,
                   help="per-iteration node budget (default %(default)s)")
    p.add_argument("--replicas", type=int, default=SearchConfig.replicas)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes running the replicas, this one included: N starts "
                        "N - 1 workers (default 1, in-process); "
                        "0 = one per CPU this process may use")
    p.add_argument("--plan-out")
    p.add_argument("--trace-out")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_localsearch)

    p = sub.add_parser("solve", help="solve a grid instance file")
    p.add_argument("grid")
    p.add_argument("--solver", choices=["brute", "yconvex", "canonical"], default="brute")
    p.add_argument("--kappa", type=int, help="override the file header's district count")
    p.add_argument("--delta-near", type=_fraction,
                   help="brute solver only: each district may hold between 1/kappa - delta "
                        "and 1/kappa + delta of the population, not exactly 1/kappa")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 3),
                   help="canonical accuracy parameter; the block side is ceil(1/epsilon) "
                        "(default 1/3)")
    p.add_argument("--oracle-limit", type=int, default=ORACLE_CELL_LIMIT)
    p.add_argument("--plan-out")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen-hardness", help="emit a reduction gadget as a grid file")
    p.add_argument("values", type=int, nargs="+")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--decoys", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_hardness)

    p = sub.add_parser("synth-data", help="emit a synthetic state benchmark CSV")
    p.add_argument("state", choices=sorted(STATE_PROFILES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_synth_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in vars(args).items()
        if k not in {"func", "manifest"} and not callable(v)
    }
    started = time.perf_counter()
    try:
        # A command returns its exit code, its manifest fields ("result"
        # and any of its own), its input paths and its stdout text.
        code, fields, inputs, stdout = args.func(args)
        manifest = json.dumps({
            "command": args.command,
            "config": config,
            "inputs": {str(p): _digest(p) for p in inputs},
            **fields,
            "version": __version__,
            "wall_time_s": round(time.perf_counter() - started, 6),
        }, sort_keys=True)
        if args.manifest:
            Path(args.manifest).write_text(manifest + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    if not args.manifest:
        print(manifest, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
