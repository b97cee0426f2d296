import collections
import csv
import dataclasses
import hashlib
import io
import math
import multiprocessing
import os
import random
import signal
import sys
import threading
import time

import pytest

from effgap import localsearch
from effgap.core import district_effgap
from effgap.grid import gen_hardness_instance, subset_sum_oracle
from effgap.county import (
    district_votes,
    ingest,
    plan_stats,
    read_plan_csv,
    validate_plan,
    write_plan_csv,
)
from effgap.localsearch import (
    MoveRecord,
    ReplicaState,
    SearchConfig,
    move_is_legal,
    run,
    run_iteration,
    source_rejection,
)
from effgap.synthdata import synth_state_csv
from effgap.yconvex import solve_yconvex
from conftest import (
    TOY_COUNTY_CSV,
    county_grid_csv,
    move_is_legal_reference,
    needs_fork,
    oracle_graphs,
    partition_county_csv,
    run_reference,
)

# 2x3 node grid; district 1 = {a, b, d, e}, district 2 = {c, f}.  Exactly
# one single-node move strictly improves the total gap: b -> district 2.
SIX_NODE_CSV = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,a,A,0,10,"1:b, 1:d"
1,b,B,10,0,"1:a, 2:c, 1:e"
2,c,C,10,0,"1:b, 2:f"
1,d,D,0,10,"1:a, 1:e"
1,e,E,5,5,"1:b, 1:d, 2:f"
2,f,F,0,10,"2:c, 1:e"
"""

PATH_CSV = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,x,X,1,1,"1:y"
1,y,Y,1,1,"1:x, 1:z, 2:w"
1,z,Z,1,1,"1:y"
2,w,W,1,1,"1:y"
"""


class FixedDraw:
    """A ``draw(k, n)`` that gives fixed node numbers and records its arguments."""

    def __init__(self, picks: list[int]):
        self.picks = picks
        self.calls = []

    def __call__(self, k, n):
        self.calls.append((k, n))
        return list(self.picks)


def all_single_moves(graph, plan):
    """Every (node, target) with the legality verdict and gap delta."""
    out = []
    before = plan_stats(graph, plan).total_scaled_abs
    for i, node in enumerate(graph.nodes):
        for target in sorted({plan[j] for j in graph.adj[i]}):
            if target == plan[i]:
                continue
            legal = move_is_legal(graph, plan, node, target).ok
            after = None
            if legal:
                trial = list(plan)
                trial[i] = target
                after = plan_stats(graph, trial).total_scaled_abs
            out.append((node, target, legal, before, after))
    return out


def test_exactly_one_improving_move_in_fixture():
    res = ingest(SIX_NODE_CSV)
    moves = all_single_moves(res.graph, res.plan)
    improving = [(n, t) for n, t, legal, before, after in moves if legal and after < before]
    assert improving == [((1, "b"), 2)]


def test_articulation_node_rejected():
    res = ingest(PATH_CSV)
    report = move_is_legal(res.graph, res.plan, (1, "y"), 2)
    assert not report.ok and report.reason == "source disconnected"


def test_last_node_rejected():
    res = ingest(PATH_CSV)
    report = move_is_legal(res.graph, res.plan, (2, "w"), 1)
    assert not report.ok and report.reason == "district emptied"


def test_population_bounds_enforced():
    res = ingest(SIX_NODE_CSV)
    report = move_is_legal(res.graph, res.plan, (2, "c"), 1)
    assert not report.ok and "population" in report.reason


def test_unknown_node_is_a_clear_error():
    res = ingest(SIX_NODE_CSV)
    with pytest.raises(ValueError, match="^unknown node 9:zz$"):
        move_is_legal(res.graph, res.plan, (9, "zz"), 1)


def test_iteration_r_zero_is_noop():
    res = ingest(SIX_NODE_CSV)
    state = ReplicaState(res.graph, res.plan)
    draw = FixedDraw([])
    records = run_iteration(state, draw, 0, k=5)
    assert records == [] and state.dist == res.plan
    assert draw.calls == [(5, 6)]


def test_interior_node_skipped():
    res = ingest(SIX_NODE_CSV)
    state = ReplicaState(res.graph, res.plan)
    # Index 0 is (1, 'a'), whose neighbors are all in district 1.
    records = run_iteration(state, FixedDraw([0]), 0, k=5)
    assert records == [] and state.dist == res.plan


def test_unique_improving_move_accepted():
    res = ingest(SIX_NODE_CSV)
    state = ReplicaState(res.graph, res.plan)
    records = run_iteration(state, FixedDraw([0, 1, 2, 3, 4]), 3, k=5)
    assert len(records) == 1
    rec = records[0]
    assert rec == MoveRecord(3, (1, "b"), 1, 2, 40, 20)
    assert state.dist[res.graph.index[(1, "b")]] == 2
    assert validate_plan(res.graph, state.dist).ok


def test_run_monotone_and_valid():
    res = ingest(TOY_COUNTY_CSV)
    result = run(res.graph, res.plan, SearchConfig(mu=20, k=3, seed=9, replicas=2))
    for trace in result.traces:
        last = trace.initial_scaled
        replay = list(res.plan)
        for mv in trace.moves:
            assert mv.after_scaled < mv.before_scaled
            assert mv.before_scaled == last
            replay[res.graph.index[mv.node]] = mv.to_district
            assert validate_plan(res.graph, replay).ok
            last = mv.after_scaled
        assert last == trace.final_scaled
        assert replay == trace.final_plan


def test_run_determinism_byte_identical():
    res = ingest(TOY_COUNTY_CSV)
    cfg = SearchConfig(mu=15, k=3, seed=1234, replicas=3)
    a = run(res.graph, res.plan, cfg)
    b = run(res.graph, res.plan, cfg)
    assert [t.to_lines() for t in a.traces] == [t.to_lines() for t in b.traces]
    assert a.best_replica == b.best_replica
    assert write_plan_csv(res.graph, a.traces[a.best_replica].final_plan) == write_plan_csv(
        res.graph, b.traces[b.best_replica].final_plan
    )


def test_final_never_worse_than_initial():
    res = ingest(SIX_NODE_CSV)
    result = run(res.graph, res.plan, SearchConfig(mu=10, k=4, seed=3, replicas=4))
    for trace in result.traces:
        assert trace.final_scaled <= trace.initial_scaled


def test_permutation_soundness():
    res = ingest(SIX_NODE_CSV)
    swapped_rows = ["district,county_id,assigned_district"]
    for (d, cid), assigned in zip(res.graph.nodes, res.plan):
        swapped_rows.append(f"{d},{cid},{3 - assigned}")  # swap labels 1 <-> 2
    swapped = read_plan_csv(res.graph, "\n".join(swapped_rows) + "\n")
    cfg = SearchConfig(mu=12, k=4, seed=77, replicas=2)
    base = run(res.graph, res.plan, cfg)
    perm = run(res.graph, swapped, cfg)
    for ta, tb in zip(base.traces, perm.traces):
        seq_a = [ta.initial_scaled] + [m.after_scaled for m in ta.moves]
        seq_b = [tb.initial_scaled] + [m.after_scaled for m in tb.moves]
        assert seq_a == seq_b


def test_invalid_start_plan_rejected():
    res = ingest(TOY_COUNTY_CSV)
    broken = list(res.plan)
    broken[res.graph.index[(1, "A1")]] = 2
    broken[res.graph.index[(1, "A2")]] = 2
    with pytest.raises(ValueError, match="invalid starting plan"):
        run(res.graph, broken, SearchConfig(mu=1, k=1))


def test_k_must_be_below_node_count():
    res = ingest(TOY_COUNTY_CSV)
    with pytest.raises(ValueError, match="smaller than"):
        run(res.graph, res.plan, SearchConfig(mu=1, k=4))


def assert_final_gaps_match_plans(graph, *results):
    """Every replica's final gap is its final plan's, moves or no moves."""
    for result in results:
        for trace in result.traces:
            assert trace.final_scaled == plan_stats(graph, trace.final_plan).total_scaled_abs


def test_parallel_replicas_match_sequential():
    res = ingest(SIX_NODE_CSV)
    cfg = SearchConfig(mu=8, k=4, seed=11, replicas=3)
    seq = run(res.graph, res.plan, cfg, jobs=1)
    par = run(res.graph, res.plan, cfg, jobs=3)
    assert [t.to_lines() for t in seq.traces] == [t.to_lines() for t in par.traces]
    assert [t.final_plan for t in seq.traces] == [t.final_plan for t in par.traces]
    assert seq.best_replica == par.best_replica
    assert_final_gaps_match_plans(res.graph, seq, par)


def ring_csv(side: int = 5) -> str:
    """District 1 is the border ring of a side x side grid, district 2 the rest.

    Removing a ring node leaves its two ring neighbours joined only the
    long way round, so a connectivity search must go past its first level.
    """
    def district(r, c):
        return 1 if r in (0, side - 1) or c in (0, side - 1) else 2

    lines = ["District,County_id,County,Republicans,Democrats,Neighbors"]
    for r in range(side):
        for c in range(side):
            nbs = ", ".join(
                f"{district(rr, cc)}:r{rr}_{cc}"
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < side and 0 <= cc < side
            )
            lines.append(f'{district(r, c)},r{r}_{c},R,{1 + (r + c) % 2},{1 + r % 3},"{nbs}"')
    return "\n".join(lines) + "\n"


def pin_graph(name: str) -> str:
    return county_grid_csv(2) if name == "grid" else synth_state_csv(name, seed=0)


# sha256 of the joined traces and of the best plan's CSV for
# SearchConfig(mu=100, k=20, seed=11, replicas=2), recorded from the
# search that ran move_is_legal for every (node, target) pair, so that
# a faster legality check cannot change a single move.
TRACE_PINS = {
    "WI": (
        "72f2ec98b046e718884b4f7e5ec3afee0a110cbc81e739f0669d800072353623",
        "73e683e3df56122ed47daa7260cc1885429dbd27d4e6a345b6da14ed90199522",
    ),
    "TX": (
        "d239a0ea6cf2de3222ee322a5ba9c7b6309176bc0d4a9a5ceab570dc152cc89e",
        "0f0945b652f65573e1d49ccab5bd7656c7065dde7dc77575dce1e2d9401cafda",
    ),
    "VA": (
        "6f7af461bfc483f743d35f54ac654bf5551d3c8f13cd469a8b2dcf5f747a38a8",
        "f419c5299e1b6f93f34e7b33415d2aae07104c70c34d13898ab907ae77ae65a0",
    ),
    "PA": (
        "f1b3c02a188a43b2afd70ee6be1911051639e3606bdd8642d48e55608d509f81",
        "359b6edf07ef2f8440b07d443ee2d41bf2bffdb0f983d5cb8fdeee412f0a964b",
    ),
    "grid": (
        "b10a41a8cc7959dbd19291d5e2d3ebe8ea9f4364152a1ccda6fddd114e44a232",
        "b0bf52832d8e6b591b1842be7c75035ceb1d653f75a732181f6371025a7f3335",
    ),
}


# The ids keep the "-False" of the retired best-improvement parameter, so
# each pin's test keeps its name.
@pytest.mark.parametrize("name", sorted(TRACE_PINS), ids=lambda name: f"{name}-False")
def test_traces_match_pins(name):
    res = ingest(pin_graph(name))
    cfg = SearchConfig(mu=100, k=20, seed=11, replicas=2)
    result = run(res.graph, res.plan, cfg)
    traces = "".join(t.to_lines() for t in result.traces)
    assert (
        hashlib.sha256(traces.encode()).hexdigest(),
        hashlib.sha256(write_plan_csv(res.graph, result.traces[result.best_replica].final_plan).encode()).hexdigest(),
    ) == TRACE_PINS[name]


@pytest.mark.parametrize(
    "text",
    [synth_state_csv("WI", seed=0), county_grid_csv(2, side=8, bands=3), ring_csv()],
    ids=["WI", "grid", "ring"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_move_is_legal_matches_full_validation(text, seed):
    """Along a random walk of legal moves, every verdict agrees with validate_plan."""
    res = ingest(text)
    graph, plan = res.graph, list(res.plan)
    rng = random.Random(seed)
    for _ in range(30):
        legal = []
        for i, node in enumerate(graph.nodes):
            source = plan[i]
            for target in sorted({plan[j] for j in graph.adj[i]} - {source}):
                verdict = move_is_legal(graph, plan, node, target).ok
                plan[i] = target
                assert verdict == validate_plan(graph, plan).ok, (node, target)
                plan[i] = source
                if verdict:
                    legal.append((i, target))
        if not legal:
            break
        i, target = rng.choice(legal)
        plan[i] = target
    assert validate_plan(graph, plan).ok


def test_move_is_legal_matches_whole_plan_reference():
    """move_is_legal gives the report of the dict-based reference, which
    shares none of its checks, on random moves along random walks,
    under the frozen bounds and under bounds wide enough to drain a district
    to one node, and every reason comes up."""
    seen = collections.Counter()
    rng = random.Random(23)
    for text in (synth_state_csv("WI", seed=0), county_grid_csv(7, side=12, bands=4)):
        res = ingest(text)
        wide = dataclasses.replace(res.graph, pop_lo=0, pop_hi=sum(res.graph.node_pop))
        for graph in (res.graph, wide):
            plan = list(res.plan)
            drain = rng.choice(graph.district_ids)  # mostly its nodes are drawn
            for _ in range(600):
                members = [i for i, d in enumerate(plan) if d == drain]
                i = rng.choice(members) if rng.random() < 0.5 else rng.randrange(len(plan))
                others = sorted({plan[j] for j in graph.adj[i]} - {plan[i]})
                target = rng.choice([plan[i], rng.choice(graph.district_ids)] + others * 3)
                report = move_is_legal(graph, plan, graph.nodes[i], target)
                assert report == move_is_legal_reference(graph, plan, graph.nodes[i], target)
                seen[report.reason] += 1
                if report.ok:
                    plan[i] = target
            assert validate_plan(graph, plan).ok
    assert sum(seen.values()) >= 2000
    assert set(seen) == {
        None,
        "target equals current district",
        "target district not adjacent to node",
        "district emptied",
        "source below population bound",
        "source disconnected",
        "target above population bound",
    }, seen


def test_parallel_replicas_match_sequential_on_state():
    res = ingest(synth_state_csv("PA", seed=0))
    cfg = SearchConfig(mu=100, k=20, seed=5, replicas=4)
    seq = run(res.graph, res.plan, cfg, jobs=1)
    par = run(res.graph, res.plan, cfg, jobs=2)
    assert [t.to_lines() for t in seq.traces] == [t.to_lines() for t in par.traces]
    assert [t.final_plan for t in seq.traces] == [t.final_plan for t in par.traces]
    assert seq.best_replica == par.best_replica
    assert_final_gaps_match_plans(res.graph, seq, par)


def _searched(result):
    """Each replica's trace text and final plan, in replica order."""
    return [(t.to_lines(), t.final_plan) for t in result.traces]


def _counted_starts(monkeypatch) -> list:
    """The processes started from now on, appended as each starts."""
    started = []
    real_start = multiprocessing.Process.start

    def counting_start(proc):
        started.append(proc)
        real_start(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    return started


@pytest.mark.parametrize("replicas, jobs", [(5, 2), (5, 3), (2, 4)])
def test_uneven_worker_shares_match_sequential(monkeypatch, replicas, jobs):
    """Each process runs every jobs-th replica, and the results come back in replica order."""
    res = ingest(county_grid_csv(1, 8, 2))
    cfg = SearchConfig(mu=30, k=5, seed=4, replicas=replicas)
    seq = run(res.graph, res.plan, cfg, jobs=1)
    assert len({t.moves for t in seq.traces}) == replicas  # a misplaced share shows
    started = _counted_starts(monkeypatch)
    par = run(res.graph, res.plan, cfg, jobs=jobs)
    assert len(started) == min(jobs, replicas) - 1  # the caller is one of the jobs
    assert set(multiprocessing.active_children()) == set(started)  # kept for later calls
    assert _searched(seq) == _searched(par)
    assert seq.best_replica == par.best_replica


def test_workers_start_once_and_serve_every_later_call(monkeypatch):
    """Five searches start one worker, and each gives the traces of one process."""
    res = ingest(county_grid_csv(1, 8, 2))
    started = _counted_starts(monkeypatch)
    for seed in range(5):
        cfg = SearchConfig(mu=30, k=5, seed=seed, replicas=4)
        assert _searched(run(res.graph, res.plan, cfg, jobs=2)) == _searched(run(res.graph, res.plan, cfg, jobs=1))
    assert len(started) == 1
    assert multiprocessing.active_children() == started


class NeedsTwoArguments(Exception):
    """Pickles, but its pickle calls ``__init__`` with one argument, so it does not unpickle."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")


@needs_fork
def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    real_replica = localsearch._run_replica

    def failing(state0, cfg, replica):
        if replica == 1:  # worker 1's share at jobs=2
            raise ValueError("replica 1 failed")
        return real_replica(state0, cfg, replica)

    monkeypatch.setattr(localsearch, "_run_replica", failing)
    res = ingest(SIX_NODE_CSV)
    with pytest.raises(ValueError, match="replica 1 failed"):
        run(res.graph, res.plan, SearchConfig(mu=8, k=4, seed=11, replicas=4), jobs=2)
    assert len(multiprocessing.active_children()) == 1  # the worker is kept


@needs_fork
@pytest.mark.parametrize("exc, reported", [
    (ValueError("replica 1 failed", lambda: None), r"ValueError: \('replica 1 failed', <function "),
    (NeedsTwoArguments("replica 1", "failed"), "NeedsTwoArguments: replica 1 failed$"),
], ids=["does-not-pickle", "does-not-unpickle"])
def test_worker_exception_that_cannot_cross_the_pipe_is_reported(monkeypatch, exc, reported):
    """The caller gets a RuntimeError with the type and message, and the
    worker lives on to serve the next call."""
    real_replica = localsearch._run_replica

    def failing(state0, cfg, replica):
        if replica == 1 and cfg.seed == 11:
            raise exc
        return real_replica(state0, cfg, replica)

    monkeypatch.setattr(localsearch, "_run_replica", failing)
    res = ingest(county_grid_csv(1, 8, 2))
    with pytest.raises(RuntimeError, match="^replica worker raised " + reported):
        run(res.graph, res.plan, SearchConfig(mu=30, k=5, seed=11, replicas=4), jobs=2)
    [worker] = multiprocessing.active_children()
    cfg = SearchConfig(mu=30, k=5, seed=12, replicas=4)
    assert _searched(run(res.graph, res.plan, cfg, jobs=2)) == _searched(run(res.graph, res.plan, cfg, jobs=1))
    assert multiprocessing.active_children() == [worker]


@needs_fork
def test_worker_that_dies_without_sending_is_an_error(monkeypatch):
    """The caller holds no copy of a worker's end of the pipe, so its death reads as end of file."""
    real_replica = localsearch._run_replica
    monkeypatch.setattr(localsearch, "_run_replica", lambda state0, cfg, replica:
                        os._exit(3) if replica == 1 else real_replica(state0, cfg, replica))
    res = ingest(SIX_NODE_CSV)
    with pytest.raises(ChildProcessError, match="replica worker 1 exited with code 3 without sending"):
        run(res.graph, res.plan, SearchConfig(mu=8, k=4, seed=11, replicas=2), jobs=2)
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_that_dies_before_reading_its_task_is_an_error(monkeypatch):
    """A worker that exits with its task unread resets the pipe, or breaks
    it before the task is sent; either is the same error as end of file."""
    monkeypatch.setattr(localsearch, "_serve", lambda conn: os._exit(3))
    res = ingest(SIX_NODE_CSV)
    with pytest.raises(ChildProcessError, match="replica worker 1 exited with code 3 without sending"):
        run(res.graph, res.plan, SearchConfig(mu=8, k=4, seed=11, replicas=2), jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [2, 3], ids=["first-start", "second-start"])
def test_a_worker_that_fails_to_start_is_raised_and_stops_the_others(monkeypatch, jobs):
    """The last start raises, so at jobs=3 one worker is already running: it
    is stopped, none is listed, and the next call starts afresh."""
    real_start = multiprocessing.Process.start
    started = []

    def start(proc):
        if len(started) == jobs - 2:
            raise OSError("cannot start a worker")
        started.append(proc)
        real_start(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", start)
    res = ingest(county_grid_csv(1, 8, 2))
    cfg = SearchConfig(mu=30, k=5, seed=6, replicas=4)
    with pytest.raises(OSError, match="^cannot start a worker$"):
        run(res.graph, res.plan, cfg, jobs=jobs)
    assert localsearch._workers == []
    assert multiprocessing.active_children() == []
    assert not any(proc.is_alive() for proc in started)
    monkeypatch.undo()
    assert _searched(run(res.graph, res.plan, cfg, jobs=jobs)) == _searched(run(res.graph, res.plan, cfg, jobs=1))
    assert len(multiprocessing.active_children()) == jobs - 1


@needs_fork
def test_caller_failure_terminates_the_workers(monkeypatch):
    real_replica = localsearch._run_replica

    def slow_or_failing(state0, cfg, replica):
        if replica == 0:  # the caller's share
            raise ValueError("replica 0 failed")
        time.sleep(60)
        return real_replica(state0, cfg, replica)

    monkeypatch.setattr(localsearch, "_run_replica", slow_or_failing)
    res = ingest(SIX_NODE_CSV)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="replica 0 failed"):
        run(res.graph, res.plan, SearchConfig(mu=8, k=4, seed=11, replicas=3), jobs=3)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 30  # terminated, not waited for


@needs_fork
@pytest.mark.parametrize("failure", ["worker raises", "worker dies", "caller raises", "idle worker killed"])
def test_the_call_after_a_failure_reads_no_stale_reply(monkeypatch, failure):
    """Whatever went wrong in one call, or between calls, the next call's
    traces are those of one process.  In the failing call (seed 1) a
    worker's reply is still unread when the failure is raised, except when
    a worker raises: then the caller reads the other replies first."""
    real_replica = localsearch._run_replica

    def failing(state0, cfg, replica):
        if cfg.seed == 1:
            if failure == "worker raises" and replica == 1:
                raise ValueError("replica 1 failed")
            if failure == "worker dies" and replica == 1:
                os._exit(3)
            if failure == "caller raises" and replica == 0:
                raise ValueError("replica 0 failed")
        return real_replica(state0, cfg, replica)

    monkeypatch.setattr(localsearch, "_run_replica", failing)
    res = ingest(county_grid_csv(1, 8, 2))
    cfg = SearchConfig(mu=30, k=5, seed=1, replicas=6)
    if failure == "idle worker killed":
        run(res.graph, res.plan, cfg, jobs=3)
        worker = multiprocessing.active_children()[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(5)
        assert worker.exitcode == -signal.SIGKILL
    else:
        error = ChildProcessError if failure == "worker dies" else ValueError
        with pytest.raises(error):
            run(res.graph, res.plan, cfg, jobs=3)
    cfg = dataclasses.replace(cfg, seed=2)
    assert _searched(run(res.graph, res.plan, cfg, jobs=3)) == _searched(run(res.graph, res.plan, cfg, jobs=1))
    assert len(multiprocessing.active_children()) == 2


def test_an_interrupt_leaves_an_idle_worker_to_its_caller():
    """A Ctrl-C reaches a terminal's whole process group; an idle worker
    ignores it and serves the next call, and the caller handles it."""
    res = ingest(county_grid_csv(1, 8, 2))
    cfg = SearchConfig(mu=30, k=5, seed=3, replicas=4)
    run(res.graph, res.plan, cfg, jobs=2)
    [worker] = multiprocessing.active_children()
    os.kill(worker.pid, signal.SIGINT)
    worker.join(0.5)
    assert worker.is_alive()
    assert _searched(run(res.graph, res.plan, cfg, jobs=2)) == _searched(run(res.graph, res.plan, cfg, jobs=1))
    assert multiprocessing.active_children() == [worker]


def test_concurrent_callers_take_turns():
    """Two threads searching at once both get the traces of one process:
    the second waits for the workers instead of reading the first's replies."""
    res = ingest(county_grid_csv(1, 8, 2))
    cfgs = [SearchConfig(mu=30, k=5, seed=seed, replicas=4) for seed in (1, 2)]
    want = [_searched(run(res.graph, res.plan, cfg, jobs=1)) for cfg in cfgs]
    run(res.graph, res.plan, cfgs[0], jobs=2)  # start the worker now: forking with threads alive warns
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            got = [None, None]

            def search(i):
                got[i] = _searched(run(res.graph, res.plan, cfgs[i], jobs=2))

            threads = [threading.Thread(target=search, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(interval)
    assert len(multiprocessing.active_children()) == 1


def _drained_plan(graph, plan, rng, steps):
    """The plan after random legal moves that drain one district at a time.

    Each round draws a district and tries `steps` random moves of its nodes
    to neighbouring districts, so it ends close to the lower population
    bound and its neighbours fill towards the upper one.
    """
    plan = list(plan)
    for _ in range(len(graph.district_ids)):
        source = rng.choice(graph.district_ids)
        for _ in range(steps):
            i = rng.choice([i for i, d in enumerate(plan) if d == source])
            targets = sorted({plan[j] for j in graph.adj[i]} - {source})
            if targets:
                target = rng.choice(targets)
                if move_is_legal(graph, plan, graph.nodes[i], target).ok:
                    plan[i] = target
    assert validate_plan(graph, plan).ok
    return plan


def equal_pop_csv(text: str, seed: int) -> str:
    """The county CSV with every node's population set to 2, split at random.

    Equal populations put district populations on a lattice, so moves meet
    the population bounds with equality.
    """
    rng = random.Random(seed)
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        dem = rng.randint(0, 2)
        row[3], row[4] = str(2 - dem), str(dem)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


DIFFERENTIAL_GRAPHS = {
    "grid6x2": lambda: county_grid_csv(1, side=6, bands=2),
    "grid9x3": lambda: county_grid_csv(2, side=9, bands=3),
    "grid12x4": lambda: county_grid_csv(3, side=12, bands=4),
    "grid16x4": lambda: county_grid_csv(4, side=16, bands=4),
    **{name: (lambda name=name: synth_state_csv(name, seed=0)) for name in ("WI", "TX", "VA", "PA")},
    "equal8x3": lambda: equal_pop_csv(county_grid_csv(5, side=8, bands=3), 5),
    "equal10x4": lambda: equal_pop_csv(county_grid_csv(6, side=10, bands=4), 6),
    "ring5": lambda: ring_csv(5),
    "ring7": lambda: ring_csv(7),
}


def test_search_matches_dict_based_reference(monkeypatch):
    """Every trace and final plan equals the dict-based search's, from the
    ingested plan and from plans with districts drained to their bounds.

    The reference checks the source side before it scans the targets, so
    it is the oracle for the search's order, which checks it only for a
    node's first improving target: the runs must meet nodes whose move
    that check refuses, by connectivity and by the population bound."""
    refused = collections.Counter()
    real = localsearch.source_rejection

    def counted(graph, dist, i, source_pop):
        reason = real(graph, dist, i, source_pop)
        refused[reason] += reason is not None
        return reason

    monkeypatch.setattr(localsearch, "source_rejection", counted)
    runs = accepted = 0
    for name, make in DIFFERENTIAL_GRAPHS.items():
        res = ingest(make())
        graph = res.graph
        rng = random.Random(name)
        starts = [res.plan] + [_drained_plan(graph, res.plan, rng, 12) for _ in range(2)]
        for start_no, plan0 in enumerate(starts):
            for seed in range(8):
                cfg = SearchConfig(mu=25, k=min(12, len(graph.nodes) - 1), seed=1000 * start_no + seed,
                                   replicas=1 + seed % 3)
                got = run(graph, plan0, cfg)
                want = run_reference(graph, plan0, cfg)
                assert [t.to_lines() for t in got.traces] == [t.to_lines() for t in want], (name, cfg)
                assert [t.final_plan for t in got.traces] == [t.final_plan for t in want], (name, cfg)
                runs += 1
                accepted += sum(len(t.moves) for t in want)
    assert runs >= 200 and accepted >= 500, (runs, accepted)
    assert refused["source disconnected"] and refused["source below population bound"], refused


def test_source_is_checked_only_for_an_improving_move(monkeypatch):
    """``source_rejection`` runs only for a drawn node with an in-bounds,
    strictly improving target, recomputed here from the whole plan.  Every
    check an iteration passes is an accepted move, and a replica's sweep
    stops at its first passing check, which it does not apply; so the calls
    are the accepted moves, the refused ones and one for each sweep that
    found a mover, that is every sweep but a stopping one."""
    real = localsearch.source_rejection
    calls = refused = 0

    def checked(graph, dist, i, source_pop):
        nonlocal calls, refused
        votes = district_votes(graph, dist)
        assert source_pop == votes[dist[i]].population()

        def gap_after(target):
            trial = list(dist)
            trial[i] = target
            return abs(sum(map(district_effgap, district_votes(graph, trial).values())))

        before = abs(sum(map(district_effgap, votes.values())))
        targets = {dist[j] for j in graph.adj[i]} - {dist[i]}
        assert any(
            votes[t].population() + graph.node_pop[i] <= graph.pop_hi and gap_after(t) < before for t in targets
        ), (graph.nodes[i], dist[i])
        reason = real(graph, dist, i, source_pop)
        calls += 1
        refused += reason is not None
        return reason

    monkeypatch.setattr(localsearch, "source_rejection", checked)
    texts = {name: synth_state_csv(name, seed=0) for name in ("WI", "TX", "VA", "PA")}
    texts["grid"] = county_grid_csv(2)
    counts = {}
    for name, text in texts.items():
        res = ingest(text)
        calls = refused = 0
        out = run(res.graph, res.plan, SearchConfig(mu=100, k=20, seed=11, replicas=2))
        accepted = sum(len(t.moves) for t in out.traces)
        movers = sum(t.sweeps - (t.stopped_at is not None) for t in out.traces)
        assert calls == accepted + refused + movers, (name, calls, accepted, refused, movers)
        counts[name] = (calls, accepted, refused)
    assert all(accepted for _, accepted, _ in counts.values()), counts
    print("source checks (calls, accepted, refused):", counts)


def test_state_gap_is_sum_of_district_effgaps():
    """The signed gap the state carries, 4A - P - 2W, equals the sum of
    ``district_effgap`` over the plan's districts, at the start and after
    every legal move, on ingested and drained plans, tie districts included."""
    plans = ties = moves = 0
    for name, make in DIFFERENTIAL_GRAPHS.items():
        res = ingest(make())
        graph = res.graph
        rng = random.Random(name)
        for plan in [res.plan] + [_drained_plan(graph, res.plan, rng, 12) for _ in range(2)]:
            state = ReplicaState(graph, plan)
            votes = district_votes(graph, plan).values()
            assert state.signed == sum(map(district_effgap, votes)), name
            ties += sum(2 * v.party_a == v.population() for v in votes)
            plans += 1
            for _ in range(60):
                i = rng.randrange(len(graph.nodes))
                targets = sorted({state.dist[j] for j in graph.adj[i]} - {state.dist[i]})
                if not targets or source_rejection(graph, state.dist, i, state.pop[state.dist[i]]) is not None:
                    continue
                target = rng.choice(targets)
                if state.pop[target] + graph.node_pop[i] > graph.pop_hi:
                    continue
                state.move(i, target)
                assert validate_plan(graph, state.dist).ok
                votes = district_votes(graph, state.dist).values()
                assert state.signed == sum(map(district_effgap, votes)), (name, i, target)
                ties += sum(2 * v.party_a == v.population() for v in votes)
                moves += 1
    assert plans == 3 * len(DIFFERENTIAL_GRAPHS) and ties and moves >= 200, (plans, ties, moves)


def test_sweep_finds_nothing_exactly_when_a_full_iteration_accepts_nothing(monkeypatch):
    """A replica's sweep stops it exactly when ``run_iteration``, given every
    node in key order, accepts no move, and it runs once ceil(n/(2k))
    iterations have accepted nothing, and then not again until a move.

    The sweep is watched in ``_run_replica`` itself, with draws that return
    no node, so that every iteration is idle and a movable state has one
    sweep in 2n iterations.  The states checked are the
    ingested plan and drained plans, which can usually move, and every
    replica's final plan after a search that the sweep stopped, which must
    not; both verdicts must occur."""
    from effgap import pcg64

    texts = [synth_state_csv(name, seed=0) for name in ("WI", "TX", "VA", "PA")]
    texts += [county_grid_csv(2), county_grid_csv(41, 40, 4)]
    texts += [make() for make in DIFFERENTIAL_GRAPHS.values()] + oracle_graphs()
    verdicts = collections.Counter()
    for g, text in enumerate(texts):
        res = ingest(text)
        graph, n = res.graph, len(res.graph.nodes)
        k = min(20 if n > 40 else 8, n - 1)
        rng = random.Random(g)
        plans = [res.plan] + [_drained_plan(graph, res.plan, rng, 12) for _ in range(2)]
        searched = run(graph, res.plan, SearchConfig(mu=2000, k=k, seed=g, replicas=2))
        assert all(t.stopped_at is not None for t in searched.traces), g
        stuck_plans = [t.final_plan for t in searched.traces]
        with monkeypatch.context() as m:
            m.setattr(pcg64, "replica_draw", lambda seed, replica: lambda k, n: [])
            for plan in plans + stuck_plans:
                moved = run_iteration(ReplicaState(graph, plan), FixedDraw(list(range(n))), 0, k)
                trace = localsearch._run_replica(ReplicaState(graph, plan), SearchConfig(mu=2 * n, k=k), 0)
                assert trace.moves == () and trace.final_plan == plan, g
                assert (trace.stopped_at is not None) == (not moved), (g, moved, trace.stopped_at)
                assert trace.sweeps == 1, (g, trace.sweeps)
                if trace.stopped_at is not None:
                    assert (trace.stopped_at, trace.sweeps) == (math.ceil(n / (2 * k)) - 1, 1), g
                verdicts["stuck" if trace.stopped_at is not None else "movable"] += 1
        for plan in stuck_plans:
            assert not run_iteration(ReplicaState(graph, plan), FixedDraw(list(range(n))), 0, k), g
    assert verdicts["stuck"] >= 2 * len(texts) and verdicts["movable"] >= len(texts), verdicts
    print("sweep verdicts:", dict(verdicts))


def test_the_stop_is_invisible():
    """A replica that a sweep stopped at iteration s has the same trace and
    final plan at mu = s + 1, 10,000 and 1,000,000, and the same as the
    dict-based search, which skips no node and stops only when its own
    check of every node finds no legal, improving move: on the states at
    mu = 100 with 4 replicas, and at mu = 1,000 with 10 on a 40x40 grid,
    whose iterations often make several moves, and on every differential
    graph."""
    runs = [(name, synth_state_csv(name, seed=0), 100, 4) for name in ("WI", "TX", "VA", "PA")]
    runs.append(("grid40", county_grid_csv(41, 40, 4), 1000, 10))
    runs += [(name, make(), 1000, 10) for name, make in DIFFERENTIAL_GRAPHS.items()]
    stopped = 0
    for name, text, mu, replicas in runs:
        res = ingest(text)
        graph, plan = res.graph, res.plan
        cfg = SearchConfig(mu=mu, k=min(20, len(graph.nodes) - 1), seed=11, replicas=replicas)
        base = run(graph, plan, cfg)
        want = run_reference(graph, plan, cfg)
        assert [t.to_lines() for t in base.traces] == [t.to_lines() for t in want], name
        assert [t.final_plan for t in base.traces] == [t.final_plan for t in want], name
        for mu in (10_000, 1_000_000, *{t.stopped_at + 1 for t in base.traces if t.stopped_at is not None}):
            other = run(graph, plan, dataclasses.replace(cfg, mu=mu))
            for a, b in zip(base.traces, other.traces):
                if a.stopped_at is not None and a.stopped_at < mu:
                    assert (a.to_lines(), a.final_plan, a.stopped_at, a.sweeps) == (
                        b.to_lines(), b.final_plan, b.stopped_at, b.sweeps), (name, mu, a.replica)
                    stopped += 1
    assert stopped >= 16, stopped


PAPER_SIZE = SearchConfig(mu=1000, k=20, seed=20260810, replicas=10)


def test_a_node_is_refused_once_per_plan(monkeypatch):
    """Within a replica, ``source_rejection`` never refuses the same node on
    the same plan twice: a node that ``_moves`` refuses joins ``proven``,
    which later draws and sweeps skip until a move changes the plan.  No
    plan recurs, since every move strictly lowers the gap."""
    real_check, real_replica = localsearch.source_rejection, localsearch._run_replica
    refused = set()
    repeats = refusals = 0

    def checked(graph, dist, i, source_pop):
        nonlocal repeats, refusals
        reason = real_check(graph, dist, i, source_pop)
        if reason is not None:
            key = (i, tuple(dist))
            repeats += key in refused
            refusals += 1
            refused.add(key)
        return reason

    def replica(state0, cfg, index):
        refused.clear()
        return real_replica(state0, cfg, index)

    monkeypatch.setattr(localsearch, "source_rejection", checked)
    monkeypatch.setattr(localsearch, "_run_replica", replica)
    for name in ("WI", "VA"):
        res = ingest(synth_state_csv(name))
        run(res.graph, res.plan, PAPER_SIZE)
    assert refusals >= 50 and repeats == 0, (refusals, repeats)


def test_no_sweep_repeats_on_an_unchanged_state(monkeypatch):
    """Between any two sweeps of a replica lies an iteration that accepted a
    move.  A sweep that finds a mover does not apply it, so a second sweep
    before the next move could only find it again.  Every node in
    ``proven`` is refused by the state as it is, checked before and after
    each iteration on the states.  The runs are the four states and a
    40x40 grid at paper size."""
    real_iteration, real_moves, real_replica = localsearch.run_iteration, localsearch._moves, localsearch._run_replica
    events = []  # per replica: whether each iteration moved, and None for a sweep
    checking = in_iteration = False

    def all_refused(state):
        proven, state.proven = state.proven, set()
        try:
            return next(real_moves(state, sorted(proven)), None) is None
        finally:
            state.proven = proven

    def iteration(state, draw, number, k):
        nonlocal in_iteration
        assert not checking or all_refused(state), number
        in_iteration = True
        try:
            accepted = real_iteration(state, draw, number, k)
        finally:
            in_iteration = False
        assert not checking or all_refused(state), number
        events[-1].append(bool(accepted))
        return accepted

    def moves(state, nodes):
        if not in_iteration:
            events[-1].append(None)
        return real_moves(state, nodes)

    def replica(state0, cfg, index):
        events.append([])
        return real_replica(state0, cfg, index)

    monkeypatch.setattr(localsearch, "run_iteration", iteration)
    monkeypatch.setattr(localsearch, "_moves", moves)
    monkeypatch.setattr(localsearch, "_run_replica", replica)
    texts = {name: synth_state_csv(name) for name in ("WI", "TX", "VA", "PA")}
    texts["grid40"] = county_grid_csv(41, 40, 4)
    pairs = 0
    for name, text in texts.items():
        checking = name != "grid40"
        res = ingest(text)
        events.clear()
        out = run(res.graph, res.plan, PAPER_SIZE)
        for trace, seen in zip(out.traces, events):
            sweeps = [at for at, event in enumerate(seen) if event is None]
            assert len(sweeps) == trace.sweeps, (name, trace.replica)
            for first, second in zip(sweeps, sweeps[1:]):
                assert any(seen[first:second]), (name, trace.replica, first, second)
                pairs += 1
    assert pairs >= 10, pairs


def test_hardness_gadget_as_a_county_graph_is_frozen():
    """A gadget's y-convex witness, ingested as a county graph, is an exact
    equipartition: its window is one population, its plan's gap is the DP's
    optimum, only empty cells can move, and the search accepts no move."""
    rng = random.Random(1903)
    yes = legal_moves = 0
    for g in range(60):
        n = rng.randint(2, 8)
        if g % 3:
            values = [rng.randint(1, 16) for _ in range(n)]
        else:
            # Planted split: the last value closes a random signed sum.
            last = 0
            while not 1 <= last <= 16:
                values = [rng.randint(1, 16) for _ in range(n - 1)]
                last = abs(sum(rng.choice((1, -1)) * v for v in values))
            values.append(last)
        values = [4 * v for v in values]
        inst = gen_hardness_instance(values, decoy_count=rng.randint(0, 2), seed=g)
        dp = solve_yconvex(inst.polygon, inst.kappa)
        assert dp.value is not None and (dp.value == 0) == subset_sum_oracle(values), values
        yes += dp.value == 0
        res = ingest(partition_county_csv(inst.polygon, dp.partition))
        graph, plan = res.graph, res.plan
        assert graph.pop_lo == graph.pop_hi, values
        assert plan_stats(graph, plan).total_scaled_abs == dp.value, values
        for i, node in enumerate(graph.nodes):
            for target in sorted({plan[j] for j in graph.adj[i]} - {plan[i]}):
                if move_is_legal(graph, plan, node, target).ok:
                    assert graph.node_pop[i] == 0, (values, node, target)
                    legal_moves += 1
        cfg = SearchConfig(mu=30, k=min(8, len(graph.nodes) - 1), seed=g, replicas=2)
        assert not any(trace.moves for trace in run(graph, plan, cfg).traces), values
    assert 0 < yes < 60 and legal_moves, (yes, legal_moves)
    print(f"60 gadgets ({yes} with an equal split): {legal_moves} legal moves, all of empty cells")


def test_search_reads_the_graphs_window():
    """The search's bounds are the graph's: a copy of the graph gives the same
    traces, and on a graph whose window is widened by 15% of the ideal district
    population on each side, every final plan is valid and some leave the
    ingested window."""
    outside = 0
    for name in ("WI", "PA"):
        res = ingest(synth_state_csv(name, seed=0))
        graph, plan = res.graph, res.plan
        cfg = SearchConfig(mu=100, k=20, seed=11, replicas=2)
        same = run(dataclasses.replace(graph), plan, cfg)
        assert [t.to_lines() for t in same.traces] == [t.to_lines() for t in run(graph, plan, cfg).traces]
        slack = 15 * graph.total_votes().population() // (100 * len(graph.district_ids))
        wide = dataclasses.replace(graph, pop_lo=graph.pop_lo - slack, pop_hi=graph.pop_hi + slack)
        for trace in run(wide, plan, cfg).traces:
            assert validate_plan(wide, trace.final_plan).ok, name
            outside += not validate_plan(graph, trace.final_plan).ok
    assert outside, "no replica used the widened window"
    print(f"{outside} of 4 replicas ended outside the ingested window")
