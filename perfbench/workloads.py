"""The four workloads: cases (one ``effgap.cli.main(argv)`` call each) and their checks.

A workload builder writes its seeded input files into a work directory and
returns a list of cases.  Each case carries a check that looks only at the
exit code, the captured stdout/stderr and the files the case wrote, and
returns a list of problems (empty when the output is right).  Cross-case
checks, such as brute <= yconvex on the same instance, run once the whole
first pass has finished.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
from effgap import cli, synthdata
from effgap.county import ingest, read_plan_csv, validate_plan
from effgap.grid import GridPartition, brute_force_opt, read_instance, validate_partition
from effgap.yconvex import is_yconvex_partition

STATES = ("WI", "TX", "VA", "PA")
GRID_CELL_POP = 2  # uniform cell population of the exact-solver instances
ORACLE_LIMIT = 32


@dataclass
class Outcome:
    code: int | None  # None when main raised
    stdout: str
    stderr: str
    files: dict[str, str]  # output role ("plan", "trace") -> text
    error: str | None = None

    def manifest(self) -> dict:
        return json.loads(self.stderr.strip().splitlines()[-1])


@dataclass
class Case:
    id: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    outputs: dict[str, Path] = field(default_factory=dict)  # role -> path the case writes
    pin_output: bool = True  # False when the value may legitimately change (canonical)
    info: dict = field(default_factory=dict)  # recorded beside the digests


@dataclass
class Workload:
    cases: list[Case]
    # (case id, problem) pairs found across the outcomes of one pass
    cross_check: Callable[[dict[str, Outcome]], list[tuple[str, str]]] = lambda outcomes: []


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{tag}:{seed}")


def _jobs() -> int:
    """Pool size for the replica cases: 2, capped at the usable cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# County workloads
# ---------------------------------------------------------------------------


class Graph:
    """One county graph: its file, an independent parse, and the program's view."""

    def __init__(self, name: str, path: Path, text: str):
        self.name, self.path = name, path
        path.write_text(text)
        self.county = inputs.County(text)
        self.ingested = ingest(text)
        self.initial = self.county.summary(self.county.initial)


def _county_graphs(seed: int, work: Path, small: bool) -> list[Graph]:
    states = ("WI", "VA") if small else STATES
    graphs = [Graph(s, work / f"{s}.csv", synthdata.synth_state_csv(s, seed)) for s in states]
    side, bands = (12, 2) if small else (40, 4)
    text = inputs.county_grid_csv(_rng(seed, "county-grid"), side, bands)
    graphs.append(Graph("grid", work / "grid.csv", text))
    return graphs


def _plan_problems(g: Graph, text: str) -> tuple[list[str], dict]:
    """validate_plan on a written plan, plus an independent cover check."""
    plan = read_plan_csv(g.ingested.graph, text)
    report = validate_plan(g.ingested.graph, plan)
    problems = [] if report.ok else [f"written plan invalid: {report.reason}"]
    assignment = inputs.read_plan(text)
    if set(assignment) != set(g.county.keys):
        problems.append("written plan does not cover the graph")
    return problems, assignment


def _parse_search_trace(text: str) -> list[dict]:
    blocks = []
    for line in text.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        if line.startswith("replica="):
            blocks.append({"replica": int(fields["replica"]), "initial": int(fields["initial"]), "moves": []})
        elif line.startswith("move "):
            blocks[-1]["moves"].append((int(fields["before"]), int(fields["after"])))
        elif line.startswith("final="):
            blocks[-1]["final"] = int(fields["final"])
            blocks[-1]["count"] = int(fields["moves"])
    return blocks


def _check_search(g: Graph, replicas: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        problems, assignment = _plan_problems(g, out.files["plan"])
        after = g.county.summary(assignment)
        result = out.manifest()["result"]
        if result["original_bp"] != g.initial["normalized_bp"]:
            problems.append("manifest original_bp differs from the recomputed gap")
        if result["new_bp"] != after["normalized_bp"]:
            problems.append("manifest new_bp differs from the written plan's gap")
        blocks = _parse_search_trace(out.files["trace"])
        if [b["replica"] for b in blocks] != list(range(replicas)):
            return problems + ["trace does not hold one block per replica"]
        for b in blocks:
            chain = [b["initial"]] + [after_ for _, after_ in b["moves"]]
            if b["initial"] != g.initial["total_scaled_abs"]:
                problems.append(f"replica {b['replica']} initial gap differs from the input's")
            if any(before != prev or after_ >= before
                   for (before, after_), prev in zip(b["moves"], chain)):
                problems.append(f"replica {b['replica']} has a move that does not strictly improve")
            if b["final"] != chain[-1] or b["count"] != len(b["moves"]):
                problems.append(f"replica {b['replica']} final line disagrees with its moves")
        best = min(range(replicas), key=lambda i: (blocks[i]["final"], i))
        if result["best_replica"] != best:
            problems.append("manifest best_replica is not the best trace")
        if blocks[best]["final"] != after["total_scaled_abs"]:
            problems.append("written plan's gap differs from the best replica's final gap")
        expected = f"best replica: {best} of {replicas}; accepted moves: {blocks[best]['count']}"
        if expected not in out.stdout.splitlines():
            problems.append("stdout best-replica line wrong")
        return problems

    return check


def county_search(seed: int, work: Path, small: bool) -> Workload:
    """localsearch --k 20 on each graph; half one replica, half four in a pool.

    The large grid gets two search seeds and each state one, so the grid's
    pool cases fill the top sixth of case times and the p90 tail lands inside
    that group rather than on its edge.
    """
    rng = _rng(seed, "county-search")
    cases = []
    for g in _county_graphs(seed, work, small):
        for s in rng.sample(range(10_000), 2 if g.name == "grid" and not small else 1):
            for replicas, extra in ((1, []), (4, ["--jobs", str(_jobs())])):
                cid = f"{g.name}-s{s}-r{replicas}"
                outputs = {"plan": work / f"{cid}.plan.csv", "trace": work / f"{cid}.trace.txt"}
                argv = ["localsearch", str(g.path), "--k", "20", "--seed", str(s),
                        "--replicas", str(replicas), *extra,
                        "--plan-out", str(outputs["plan"]), "--trace-out", str(outputs["trace"])]
                cases.append(Case(cid, argv, _check_search(g, replicas), outputs))

    def cross_check(outcomes: dict[str, Outcome]) -> list[tuple[str, str]]:
        # Replica streams are spawned from the root seed, so replica 0 of a
        # four-replica run repeats the one-replica run with the same seed.
        problems = []
        for case in cases:
            if case.id.endswith("-r4"):
                one = outcomes[case.id[:-1] + "1"].files.get("trace", "")
                four = outcomes[case.id].files.get("trace", "")
                if not one or not four.startswith(one):
                    problems.append((case.id, "replica 0 differs from the one-replica run"))
        return problems

    return Workload(cases, cross_check)


def _check_stats(g: Graph, assignment: dict, mode: str) -> Callable[[Outcome], list[str]]:
    expected = g.county.summary(assignment)
    totals = g.county.district_totals(assignment)

    def check(out: Outcome) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        problems = []
        if out.manifest()["result"] != expected:
            problems.append("manifest result differs from the recomputed statistics")
        lines = out.stdout.splitlines()
        seats = f"seats: Democrats {expected['seats_a']} / GOP {expected['seats_b']}"
        if seats not in lines:
            problems.append("stdout seats line wrong")
        rows = lines[:-3]
        if mode == "json":
            records = [json.loads(line) for line in rows]
            got = {r["district"]: (r["democrats"], r["population"], r["scaled_gap"]) for r in records}
            want = {d: (a, p, inputs.scaled_gap(a, p)) for d, (a, p) in totals.items()}
            if got != want:
                problems.append("json records differ from the recomputed districts")
        elif len(rows) != 1 + len(totals):
            problems.append("table does not hold one row per district")
        return problems

    return check


def county_stats(seed: int, work: Path, small: bool) -> Workload:
    """stats as a table, with --json, and with --plan on a benchmark-written plan."""
    rng = _rng(seed, "county-stats")
    cases = []
    for g in _county_graphs(seed, work, small):
        assignment = g.county.random_plan(rng, moves=len(g.county.keys) // 8)
        plan_path = work / f"{g.name}.plan.csv"
        plan_path.write_text(inputs.plan_csv(assignment))
        problems, _ = _plan_problems(g, plan_path.read_text())
        if problems:
            raise RuntimeError(f"generated plan for {g.name} is invalid: {problems}")
        for mode, extra, plan in (("table", [], g.county.initial), ("json", ["--json"], g.county.initial),
                                  ("plan", ["--plan", str(plan_path)], assignment)):
            cases.append(Case(f"{g.name}-{mode}", ["stats", str(g.path), *extra],
                              _check_stats(g, plan, mode)))
    return Workload(cases)


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------


class Instance:
    def __init__(self, name: str, path: Path, text: str):
        self.name, self.path = name, path
        path.write_text(text)
        self.kappa, self.votes = inputs.parse_instance(text)
        self.polygon, _ = read_instance(text)
        self._oracle = None

    def oracle(self):
        """The exhaustive optimum, computed once for the checks."""
        if self._oracle is None:
            self._oracle = brute_force_opt(self.polygon, self.kappa, cell_limit=ORACLE_LIMIT)
        return self._oracle


def _reported_value(out: Outcome) -> int:
    for line in out.stdout.splitlines():
        if line.startswith("value (scaled by 2): "):
            return int(line.rsplit(" ", 1)[1])
    raise ValueError("no value line")


def _check_exact(inst: Instance, solver: str, expect: int | None = None) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.code != 0 or "status: optimal" not in out.stdout.splitlines():
            return [f"exit code {out.code}, not optimal"]
        value = _reported_value(out)
        result = out.manifest()["result"]
        problems = []
        if (result["status"], result["value_scaled"], result["kappa"]) != ("optimal", value, inst.kappa):
            problems.append("manifest result disagrees with stdout")
        labels = inputs.label_partition(out.files["plan"])
        witnesses = [labels]
        if solver == "yconvex":
            if not is_yconvex_partition(GridPartition(labels)):
                problems.append("witness is not y-convex")
        else:
            oracle = inst.oracle()
            witnesses += [dict(q.labels) for q in oracle.partitions]
            if (oracle.value, len(oracle.partitions)) != (value, result["optima"]):
                problems.append("value or optima count differs from the oracle")
            if labels != dict(oracle.partitions[0].labels):
                problems.append("written partition is not the first optimum")
        for w in witnesses:
            report = validate_partition(inst.polygon, GridPartition(w), inst.kappa)
            if not report.ok:
                problems.append(f"partition invalid: {report.reason}")
            if inputs.partition_value(inst.votes, w) != value:
                problems.append("recomputed gap differs from the reported value")
        if expect is not None and value != expect:
            problems.append(f"gadget optimum {value}, expected {expect}")
        return problems

    return check


def grid_exact(seed: int, work: Path, small: bool) -> Workload:
    """yconvex and brute on the same uniform-population instances, plus gadgets."""
    rng = _rng(seed, "grid-exact")
    # (rows, cols, kappa, instances).  Three 4x6 instances put six cases of
    # like cost at the 75th percentile, so the p75 tail falls inside a group
    # of similar cases instead of on the edge between two groups.
    rects = ([(4, 4, 4, 1), (3, 8, 4, 1)] if small
             else [(4, 4, 4, 1), (4, 5, 4, 1), (3, 8, 4, 1), (4, 6, 3, 3), (5, 5, 5, 1)])
    shapes = [("diamond6", 2)] if small else [("diamond6", 2), ("diamond6", 3), ("diamond7", 2),
                                                ("hex26", 2), ("barrel26", 2)]
    instances = []
    for m, n, kappa, count in rects:
        for i in range(count):
            votes = inputs.uniform_votes(rng, inputs.rectangle(m, n), GRID_CELL_POP)
            name = f"rect{m}x{n}k{kappa}" + (f"-{i}" if count > 1 else "")
            instances.append(Instance(name, work / f"{name}.txt", inputs.instance_text(m, n, kappa, votes)))
    for shape, kappa in shapes:
        rows, cols, cells = inputs.shape_cells(shape)
        votes = inputs.uniform_votes(rng, cells, GRID_CELL_POP)
        name = f"{shape}k{kappa}"
        instances.append(Instance(name, work / f"{name}.txt", inputs.instance_text(rows, cols, kappa, votes)))
    cases = []
    for inst in instances:
        for solver, extra in (("yconvex", []), ("brute", ["--oracle-limit", str(ORACLE_LIMIT)])):
            plan = work / f"{inst.name}.{solver}.part"
            cases.append(Case(f"{inst.name}-{solver}",
                              ["solve", str(inst.path), "--solver", solver, *extra, "--plan-out", str(plan)],
                              _check_exact(inst, solver), {"plan": plan}))
    gadgets = [(True, 0), (False, 0)] if small else [(True, 0), (False, 0), (True, 1), (False, 1)]
    for split, decoys in gadgets:
        values = inputs.gadget_values(rng, 6, split)
        name = f"gadget-{'yes' if split else 'no'}-d{decoys}"
        path = work / f"{name}.txt"
        argv = ["gen-hardness", *map(str, values), "--scale", "4", "--decoys", str(decoys),
                "--seed", str(rng.randrange(10)), "-o", str(path)]
        if _quiet_main(argv) != 0:
            raise RuntimeError(f"gen-hardness failed for {values}")
        inst = Instance(name, path, path.read_text())
        expect = 0 if split else 2 * 4 * sum(values)
        plan = work / f"{name}.part"
        cases.append(Case(f"{name}-brute",
                          ["solve", str(path), "--solver", "brute", "--oracle-limit", str(ORACLE_LIMIT),
                           "--plan-out", str(plan)],
                          _check_exact(inst, "brute", expect), {"plan": plan}))

    def cross_check(outcomes: dict[str, Outcome]) -> list[tuple[str, str]]:
        problems = []
        for inst in instances:
            try:
                brute = _reported_value(outcomes[f"{inst.name}-brute"])
                yconvex = _reported_value(outcomes[f"{inst.name}-yconvex"])
            except ValueError:
                continue  # already failed its own check
            if brute > yconvex:
                problems.append((f"{inst.name}-brute", f"brute {brute} > yconvex {yconvex}"))
        return problems

    return Workload(cases, cross_check)


def _stable_window(votes: dict, epsilon: Fraction) -> tuple[int, int]:
    """The population window solve_two_near_stable documents, recomputed."""
    pop = sum(a + b for a, b in votes.values())
    half = min(epsilon * max(a + b for a, b in votes.values()), Fraction(1, 2))
    lo, hi = (Fraction(1, 2) - half) * pop, (Fraction(1, 2) + half) * pop
    return max(0, -(-lo.numerator // lo.denominator)), min(pop, hi.numerator // hi.denominator)


def _check_canonical(inst: Instance, epsilon: Fraction, case: Case) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.code != 0 or "status: optimal" not in out.stdout.splitlines():
            return [f"exit code {out.code}, not optimal"]
        value = _reported_value(out)
        result = out.manifest()["result"]
        case.info["value_scaled"] = value
        case.info["source"] = result["source"]
        problems = []
        if result["value_scaled"] != value or result["source"] not in ("case1", "canonical"):
            problems.append("manifest result disagrees with stdout")
        labels = inputs.label_partition(out.files["plan"])
        sides = [{c for c, lab in labels.items() if lab == k} for k in (1, 2)]
        if set(labels) != set(inst.votes) or set(labels.values()) != {1, 2}:
            return problems + ["plan is not a two-district cover of the grid"]
        if not all(inputs.connected(side, inputs.grid_neighbors) for side in sides):
            problems.append("a side is disconnected")
        lo, hi = _stable_window(inst.votes, epsilon)
        pops = [sum(sum(inst.votes[c]) for c in side) for side in sides]
        if not all(lo <= p <= hi for p in pops):
            problems.append(f"side populations {pops} outside window [{lo}, {hi}]")
        if inputs.partition_value(inst.votes, labels) != value:
            problems.append("recomputed gap differs from the reported value")
        total = sum(pops)
        achieved = max(abs(Fraction(p, total) - Fraction(1, 2)) for p in pops)
        if result["delta_achieved"] != str(achieved):
            problems.append("manifest delta_achieved differs from the plan's")
        return problems

    return check


def grid_canonical(seed: int, work: Path, small: bool) -> Workload:
    """solve --solver canonical on random-population rectangles.

    The epsilon = 1/3 cases stay although their block interiors are (nearly)
    empty, so the per-layer counters show that.
    """
    rng = _rng(seed, "grid-canonical")
    mix = ([(10, None, 1), (12, "1/4", 1), (10, "1/5", 1)] if small
           else [(10, None, 4), (20, None, 4), (20, "1/4", 10), (15, "1/5", 10)])
    cases = []
    for side, eps, count in mix:
        for i in range(count):
            votes = inputs.random_pop_votes(rng, inputs.rectangle(side, side), 1, 3)
            name = f"sq{side}-e{(eps or '1/3').replace('/', '_')}-{i}"
            inst = Instance(name, work / f"{name}.txt", inputs.instance_text(side, side, 2, votes))
            plan = work / f"{name}.part"
            argv = ["solve", str(inst.path), "--solver", "canonical", "--plan-out", str(plan)]
            if eps:
                argv += ["--epsilon", eps]
            case = Case(name, argv, None, {"plan": plan}, pin_output=False)
            case.check = _check_canonical(inst, Fraction(eps or "1/3"), case)
            cases.append(case)
    return Workload(cases)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


WORKLOADS = {
    "county-search": county_search,
    "county-stats": county_stats,
    "grid-exact": grid_exact,
    "grid-canonical": grid_canonical,
}
