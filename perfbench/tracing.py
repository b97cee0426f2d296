"""Per-layer tracing from outside the package.

The tracer wraps public functions of the effgap modules.  The package
imports names directly (``from .county import ingest``), so a function is
replaced in every effgap module namespace that binds it, not only where it
is defined.  Each call records a span (name, start, end, parent span, case
id) in memory; counts are read from the values the functions return.
``core`` gets no span: it is called per move through names bound at import
time, so its cost shows in the self time of its callers.

Spans recorded inside process-pool workers stay in the workers, so the
local-search per-iteration numbers come from in-process (one-replica)
cases only.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# Rejection reasons of localsearch.move_is_legal, by MoveReport.reason.  The
# only caller, run_iteration, never asks about the node's own district, so
# same_district is counted but not reported.
REJECT_REASONS = {
    "target equals current district": "same_district",
    "target district not adjacent to node": "not_adjacent",
    "district emptied": "emptied",
    "source disconnected": "disconnected",
    "source below population bound": "source_pop",
    "target above population bound": "target_pop",
}


def _on_ingest(t, res):
    t.counts["county.ingest.nodes"] += len(res.graph.nodes)


def _on_run(t, res):
    t.counts["localsearch.replica_s"] += sum(trace.wall_time for trace in res.traces)


def _on_iteration(t, res):
    t.counts["localsearch.moves_accepted"] += len(res)


def _on_move(t, res):
    if res.ok:
        t.counts["localsearch.move_is_legal.ok"] += 1
    else:
        t.counts["localsearch.reject." + REJECT_REASONS[res.reason]] += 1


def _on_transition(t, res):
    t.counts["yconvex.transition_feasible.ok"] += res.ok


def _on_yconvex(t, res):
    for key, value in (("yconvex.max_column_states", res.max_column_states),
                       ("yconvex.max_vote_vectors", res.max_vote_vectors)):
        t.counts[key] = max(t.counts[key], value)


def _on_brute(t, res):
    t.counts["grid.brute_force_opt.optima"] += len(res.partitions)


def _on_decomposition(t, res):
    cells = sum(len(i) for i in res.interiors)
    t.counts["canonical.interior_cells_total"] += cells
    t.counts[f"canonical.interior_cells_total.t{res.t}"] += cells
    t.counts[f"canonical.decompositions.t{res.t}"] += 1


def _on_reach(t, res):
    t.counts["canonical.subset_choices"] += sum(len(c) for c in res.choices)
    t.counts["canonical.reach_pairs"] += 1 + len(res.first_marked)


def _on_stable(t, res):
    t.counts["canonical.reach_source"] += res.plan.source == "canonical"


# (module, function, hook on the returned value)
TARGETS = (
    ("cli", "main", None),
    ("county", "ingest", _on_ingest),
    ("county", "validate_plan", None),
    ("county", "plan_stats", None),
    ("county", "read_plan_csv", None),
    ("county", "write_plan_csv", None),
    ("localsearch", "run", _on_run),
    ("localsearch", "run_iteration", _on_iteration),
    ("localsearch", "move_is_legal", _on_move),
    ("yconvex", "solve_yconvex", _on_yconvex),
    ("yconvex", "transition_feasible", _on_transition),
    ("grid", "read_instance", None),
    ("grid", "brute_force_opt", _on_brute),
    ("canonical", "solve_two_near_stable", _on_stable),
    ("canonical", "solve_case1", None),
    ("canonical", "solve_canonical", None),
    ("canonical", "build_decomposition", _on_decomposition),
    ("canonical", "build_reach_table", _on_reach),
    ("synthdata", "synth_state_csv", None),
)


class Tracer:
    """Spans and counts for one traced run; install() and uninstall() bracket it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.counts: Counter = Counter()
        self.case_id = -1  # -1 while inputs are generated
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.case_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every target (or the `only` subset, by module name)."""
        modules = [m for n, m in list(sys.modules.items()) if n == "effgap" or n.startswith("effgap.")]
        for mod_name, fn_name, hook in TARGETS:
            if only is not None and mod_name not in only:
                continue
            original = getattr(sys.modules[f"effgap.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name.

        A span's self time is its duration minus the durations of its
        direct children; calls are strictly nested, so children never
        overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("name,start_s,end_s,parent,case\n")
            for name, start, end, parent, case in self.spans:
                out.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{case}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    calls, self_s = tracer.layer_totals()
    c = tracer.counts
    rejects = {short: c[f"localsearch.reject.{short}"] for short in REJECT_REASONS.values()
               if short != "same_district"}
    # Every check after the adjacency and emptiness tests runs the BFS.
    bfs = c["localsearch.move_is_legal.ok"] + rejects["disconnected"] + rejects["source_pop"] + rejects["target_pop"]
    decompositions = calls["canonical.build_decomposition"]
    metrics = {
        "cli.main.self_s": self_s["cli.main"],
        "county.ingest.self_s": self_s["county.ingest"],
        "county.ingest.nodes": c["county.ingest.nodes"],
        "county.validate_plan.calls": calls["county.validate_plan"],
        "county.validate_plan.self_s": self_s["county.validate_plan"],
        "county.plan_stats.self_s": self_s["county.plan_stats"],
        "county.read_plan_csv.self_s": self_s["county.read_plan_csv"],
        "county.write_plan_csv.self_s": self_s["county.write_plan_csv"],
        "localsearch.run.self_s": self_s["localsearch.run"],
        "localsearch.replica_s": c["localsearch.replica_s"],
        "localsearch.run_iteration.calls": calls["localsearch.run_iteration"],
        "localsearch.run_iteration.self_s": self_s["localsearch.run_iteration"],
        "localsearch.move_is_legal.calls": calls["localsearch.move_is_legal"],
        "localsearch.move_is_legal.self_s": self_s["localsearch.move_is_legal"],
        "localsearch.move_is_legal.ok_ratio": _ratio(
            c["localsearch.move_is_legal.ok"], calls["localsearch.move_is_legal"]),
        "localsearch.moves_accepted": c["localsearch.moves_accepted"],
        **{f"localsearch.reject.{short}": n for short, n in rejects.items()},
        "localsearch.bfs_runs": bfs,
        "localsearch.bfs_wasted_ratio": _ratio(rejects["source_pop"] + rejects["target_pop"], bfs),
        "yconvex.solve_yconvex.self_s": self_s["yconvex.solve_yconvex"],
        "yconvex.transition_feasible.calls": calls["yconvex.transition_feasible"],
        "yconvex.transition_feasible.self_s": self_s["yconvex.transition_feasible"],
        "yconvex.transition_feasible.ok_ratio": _ratio(
            c["yconvex.transition_feasible.ok"], calls["yconvex.transition_feasible"]),
        "yconvex.max_column_states": c["yconvex.max_column_states"],
        "yconvex.max_vote_vectors": c["yconvex.max_vote_vectors"],
        "grid.read_instance.self_s": self_s["grid.read_instance"],
        "grid.brute_force_opt.self_s": self_s["grid.brute_force_opt"],
        "grid.brute_force_opt.optima": c["grid.brute_force_opt.optima"],
        "canonical.solve_two_near_stable.calls": calls["canonical.solve_two_near_stable"],
        "canonical.solve_two_near_stable.self_s": self_s["canonical.solve_two_near_stable"],
        "canonical.solve_case1.self_s": self_s["canonical.solve_case1"],
        "canonical.solve_canonical.self_s": self_s["canonical.solve_canonical"],
        "canonical.build_decomposition.calls": decompositions,
        "canonical.build_decomposition.self_s": self_s["canonical.build_decomposition"],
        "canonical.interior_cells": _ratio(c["canonical.interior_cells_total"], decompositions),
        # Per block side, so that empty interiors at the default t = 3 stay visible.
        **{f"canonical.interior_cells.t{t}": _ratio(c[f"canonical.interior_cells_total.t{t}"],
                                                     c[f"canonical.decompositions.t{t}"])
           for t in (3, 4, 5)},
        "canonical.build_reach_table.self_s": self_s["canonical.build_reach_table"],
        "canonical.subset_choices": c["canonical.subset_choices"],
        "canonical.reach_pairs": c["canonical.reach_pairs"],
        "canonical.reach_source_ratio": _ratio(
            c["canonical.reach_source"], calls["canonical.solve_two_near_stable"]),
        "synthdata.synth_state_csv.self_s": self_s["synthdata.synth_state_csv"],
        "trace.untraced_s": untraced_s,
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
    }
    return {name: float(value) for name, value in metrics.items()}
