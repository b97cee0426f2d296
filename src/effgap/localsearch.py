"""Randomized local search over county district plans.

Each outer iteration draws a random handful of nodes; a drawn boundary
node is reassigned to a neighboring district when the move keeps every
district connected and within the graph's frozen population bounds and
strictly lowers the plan's total absolute gap.  A drawn node's neighbors
are scanned first, each needing only the O(1) target population bound
and gap change.  The checks on the node's own district, whose
connectivity check is a flood, do not depend on the target, so they run
once and only for the first improving target: legality is checked only
for the move the node would take.  The connectivity check assumes the
district is connected before the move: the starting plan is validated
and every accepted move keeps it so.  Runs are reproducible: replica
streams derive from one root seed, nodes are drawn from a named
generator, and neighbors are scanned in key order.  The generator is
``pcg64``'s plain-Python copy of numpy's PCG64 stream, so every trace
is the one numpy's draws give.

The search works on the graph's node numbers: node i is
``graph.nodes[i]``, with votes ``graph.node_a[i]`` and
``graph.node_pop[i]`` and neighbours ``graph.adj[i]``, all built by
``ingest``, and a plan's ``dist[i]`` is its district.  A replica
searches on a ReplicaState, which reads those tables and the bounds
from the graph as they are and keeps a copy of ``dist``, each
district's vote sums, which start as ``county.district_votes``'s, and
W, the population of the districts party A wins.  The signed gap is
4A - P - 2W (the margin identity), so a drawn node's effect on W in
its own district is computed once and each target's in one step, and
an accepted move updates the two districts it touches and W.  Every
replica gives back its moves and final district list, which is its
final plan; its final gap is that of its last move.

``mu`` bounds the iterations; a replica stops sooner once it proves that
it can never move again.  An iteration accepts a move only from a node
that ``_moves`` passes, and ``_moves`` depends on the state alone, so if
no node of a state passes, no later draw changes that state.  The state
keeps ``proven``, the boundary nodes ``_moves`` has passed over since
the last move: each is refused by the state as it is, so later draws
skip it before any sum is read, and a move empties the set.  A sweep
scans every node not in ``proven``; one that passes none is the
certificate, and stopping on it leaves the moves, final plan and trace
as ``mu`` iterations would give them.  A sweep that finds a mover does
not apply it, and another before the next move would find it again, so
a sweep runs at most once per move: once ceil(n/(2k)) iterations since
the last move (or the start) have accepted nothing.  On the synthetic
states a full sweep of a stuck plan costs 2.8-6.7 idle iterations,
about 0.6n/k, since an idle iteration draws k/2 nodes on average, so the
patience sits just under that break-even; nodes already proven make the
sweep cheaper still.  Checking only the nodes of the two districts a
move touched would not do: whether a move improves depends on the sign
of the plan's total, and a move that flips it can make a far node's
move improving.

With ``jobs`` = N > 1 processes, the calling process is one of them: it
runs replicas 0, N, 2N, ...  Worker w of N - 1 runs replicas w, w + N,
...: a call sends it the starting state and the settings once, through
its own pipe, and reads its traces back once.  The workers start with
the first call that needs them and serve every later call in the
process, so a process pays for their start once, not once per search.
A replica's result depends only on the starting state, the settings and
its index, so neither the split nor a reused worker changes the output.

No worst-case approximation guarantee exists for this kind of strictly
improving single-node search: adversarial instances stall it arbitrarily
far from the optimum, so its value is empirical.
"""

from __future__ import annotations

import contextlib
import copy
import os
import threading
import time
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .core import Report, won_by_a
from .county import CountyGraph, NodeKey, district_votes, validate_plan

# numpy's name for the stream that ``pcg64`` reproduces; manifests record it.
RNG_ALGORITHM = "numpy-pcg64-seedsequence-spawn"


@dataclass(frozen=True)
class SearchConfig:
    mu: int = 100  # outer iterations at most; a replica stops once no node can move
    k: int = 20  # per-iteration node budget; the draw is uniform on 0..k
    seed: int = 0
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class MoveRecord:
    iteration: int
    node: NodeKey
    from_district: int
    to_district: int
    before_scaled: int
    after_scaled: int


@dataclass
class SearchTrace:
    replica: int
    root_seed: int
    initial_scaled: int
    final_scaled: int
    moves: tuple[MoveRecord, ...]
    final_plan: list[int]
    # Informational, and excluded from the byte-stable text: the wall time,
    # the iteration at which a sweep proved the replica could never move
    # again (None when mu ran out first), and the sweeps run.
    wall_time: float = 0.0
    stopped_at: int | None = None
    sweeps: int = 0

    def to_lines(self) -> str:
        lines = [f"replica={self.replica} seed={self.root_seed} initial={self.initial_scaled}"]
        for mv in self.moves:
            lines.append(
                f"move iter={mv.iteration} node={mv.node[0]}:{mv.node[1]} "
                f"from={mv.from_district} to={mv.to_district} "
                f"before={mv.before_scaled} after={mv.after_scaled}"
            )
        lines.append(f"final={self.final_scaled} moves={len(self.moves)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunResult:
    best_replica: int  # its trace's final_plan is the best plan
    traces: tuple[SearchTrace, ...]


class ReplicaState:
    """One replica's plan on the graph's node numbers, with per-district sums kept current.

    The node tables, adjacency and bounds are read from ``graph``, which
    is never copied, and ``dist[i]`` is node i's district.  Each
    district keeps its party-A votes and population, taken at the start
    from ``district_votes``, and ``won`` is W, the population of the
    districts party A wins.  By the margin identity the signed gap is
    ``base - 2 * won`` with ``base = 4A - P`` summed over those districts,
    so a move updates two districts and W in O(1).  ``proven`` holds the
    boundary nodes that ``_moves`` has passed over since the last move,
    each refused by the state as it is; a move empties it.
    """

    __slots__ = ("graph", "base", "dist", "party_a", "pop", "won", "proven")

    def __init__(self, graph: CountyGraph, dist: list[int]) -> None:
        self.graph = graph
        self.dist = list(dist)
        votes = district_votes(graph, self.dist)
        self.party_a = {d: v.party_a for d, v in votes.items()}
        self.pop = {d: v.population() for d, v in votes.items()}
        self.base = 4 * sum(self.party_a.values()) - sum(self.pop.values())
        self.won = sum(won_by_a(self.party_a[d], self.pop[d]) for d in votes)
        self.proven: set[int] = set()

    @property
    def signed(self) -> int:
        """The plan's signed total gap, scaled by 2: the sum of every ``district_effgap``."""
        return self.base - 2 * self.won

    def move(self, i: int, target: int) -> None:
        """Reassign node i; the caller is responsible for legality."""
        source = self.dist[i]
        a, p = self.graph.node_a[i], self.graph.node_pop[i]
        self.dist[i] = target
        self.proven.clear()
        for d, da, dp in ((source, -a, -p), (target, a, p)):
            self.won -= won_by_a(self.party_a[d], self.pop[d])
            self.party_a[d] += da
            self.pop[d] += dp
            self.won += won_by_a(self.party_a[d], self.pop[d])


def _reaches(
    adj: Sequence[Sequence[int]],
    label: Sequence[int],
    d: int,
    start: int,
    excluded: int,
    targets: Collection[int],
) -> bool:
    """Whether paths from `start` through the nodes labelled `d` reach every node of `targets`.

    ``adj[i]`` gives node i's neighbours, as in ``CountyGraph.adj``, and
    node i is inside when ``label[i] == d``.  The search never enters
    node `excluded`.  It runs breadth first and stops as soon as the last
    target is reached, so a caller whose targets lie a few steps from the
    start pays for a few levels, not for the whole district.
    """
    left = len(targets) - (start in targets)
    seen = {start, excluded}
    level = [start]
    while left and level:
        next_level = []
        for i in level:
            for nb in adj[i]:
                if label[nb] == d and nb not in seen:
                    seen.add(nb)
                    next_level.append(nb)
                    if nb in targets:
                        left -= 1
                        if not left:
                            return True
        level = next_level
    return not left


def source_rejection(graph: CountyGraph, dist: list[int], i: int, source_pop: int) -> str | None:
    """Why moving node i out of its district, of population `source_pop`,
    is illegal whatever the target.

    Emptied, then the source population bound, then connectivity.  None
    when the source side allows the move.  The district is connected, so
    i is alone in it exactly when no neighbour is in it.
    """
    adj = graph.adj
    source = dist[i]
    linked = [j for j in adj[i] if dist[j] == source]
    if not linked:
        return "district emptied"
    if source_pop - graph.node_pop[i] < graph.pop_lo:
        return "source below population bound"
    # The district stays connected exactly when one of i's neighbours in
    # it reaches all the others, which are usually a couple of steps apart.
    if not _reaches(adj, dist, source, linked[0], i, linked[1:]):
        return "source disconnected"
    return None


def move_is_legal(graph: CountyGraph, dist: list[int], node: NodeKey, target: int) -> Report:
    """Check a single-node reassignment.

    Legal when the target is a neighbor's district, the source district
    stays non-empty and connected, and both touched districts stay
    within the graph's population bounds.  Source-side reasons are
    decided before the target's; the plan's districts must be connected.
    The populations are ``district_votes``'s sums of the plan.  A node
    not in the graph is a ValueError.
    """
    i = graph.index.get(node)
    if i is None:
        raise ValueError(f"unknown node {node[0]}:{node[1]}")
    source = dist[i]
    if target == source:
        return Report(False, "target equals current district")
    if target not in {dist[j] for j in graph.adj[i]}:
        return Report(False, "target district not adjacent to node")
    votes = district_votes(graph, dist)
    reason = source_rejection(graph, dist, i, votes[source].population())
    if reason is None and votes[target].population() > graph.pop_hi - graph.node_pop[i]:
        reason = "target above population bound"
    return Report(reason is None, reason)


def _moves(state: ReplicaState, nodes: Iterable[int]) -> Iterator[tuple[int, int]]:
    """``(i, target)`` for each node of ``nodes``, in order, that moves from the state as it is.

    A node is scanned once: an interior node, and then a node in
    ``state.proven``, is skipped before any sum is read; otherwise its
    neighbours are scanned in key order, each needing only the target
    population bound and the gap change, until the first strictly
    improving one.  Only then do the target-independent checks of
    ``move_is_legal`` (``source_rejection``) run, once; if they refuse,
    they refuse every target and the node is left.  This passes exactly
    the moves that checking the source first would.  A boundary node left
    joins ``state.proven``; a yielded one does not.  The caller may apply a
    yielded move before it resumes: ``ReplicaState.move`` updates the
    lists and dicts read here in place and empties ``proven``, and the
    gap is read per node.
    """
    graph = state.graph
    adj, node_a, node_pop, pop_hi = graph.adj, graph.node_a, graph.node_pop, graph.pop_hi
    dist, party_a, pop, base, proven = state.dist, state.party_a, state.pop, state.base, state.proven
    for i in nodes:
        source = dist[i]
        neighbors = adj[i]
        for j in neighbors:
            if dist[j] != source:
                break
        else:
            continue  # interior node; nothing to try
        if i in proven:
            continue
        a, p = node_a[i], node_pop[i]
        room = pop_hi - p
        before_abs = abs(state.signed)
        # W with i taken out of its district; each target adds its own change.
        without = (state.won - won_by_a(party_a[source], pop[source])
                   + won_by_a(party_a[source] - a, pop[source] - p))
        for j in neighbors:  # key order
            target = dist[j]
            if target == source or pop[target] > room:
                continue
            ta, tp = party_a[target], pop[target]
            if abs(base - 2 * (without - won_by_a(ta, tp) + won_by_a(ta + a, tp + p))) < before_abs:
                if source_rejection(graph, dist, i, pop[source]) is None:
                    yield i, target
                else:
                    proven.add(i)
                break
        else:
            proven.add(i)


def run_iteration(
    state: ReplicaState, draw: Callable[[int, int], list[int]], iteration: int, k: int
) -> list[MoveRecord]:
    """One outer iteration; mutates the state and returns accepted moves.

    ``draw(k, n)`` gives the iteration's nodes: r uniform in 0..k, then
    r distinct node numbers below n.  Each drawn node not in
    ``state.proven`` is scanned once, by ``_moves``, and its move, if any,
    is applied before the next node is scanned.
    """
    nodes, dist = state.graph.nodes, state.dist
    records = []
    for i, target in _moves(state, draw(k, len(dist))):
        source, before = dist[i], abs(state.signed)
        state.move(i, target)
        records.append(MoveRecord(iteration, nodes[i], source, target, before, abs(state.signed)))
    return records


def _run_replica(state0: ReplicaState, cfg: SearchConfig, replica: int) -> SearchTrace:
    """One replica's trace, cut at the first sweep that finds no mover (see the module docstring)."""
    from .pcg64 import replica_draw  # deferred: no other command needs it

    started = time.perf_counter()
    draw = replica_draw(cfg.seed, replica)
    state = copy.copy(state0)
    state.dist, state.party_a, state.pop = list(state0.dist), dict(state0.party_a), dict(state0.pop)
    state.proven = set()
    n = len(state.dist)
    patience = -(-n // (2 * cfg.k))  # just under a sweep's cost in idle iterations
    moves: list[MoveRecord] = []
    idle = sweeps = 0
    stopped_at = None
    for iteration in range(cfg.mu):
        accepted = run_iteration(state, draw, iteration, cfg.k)
        if accepted:
            moves.extend(accepted)
            idle = 0
            continue
        idle += 1
        if idle == patience:  # at most once per move: idle then runs past patience until a move
            sweeps += 1
            if next(_moves(state, range(n)), None) is None:
                stopped_at = iteration
                break
    initial = abs(state0.signed)
    return SearchTrace(replica, cfg.seed, initial, moves[-1].after_scaled if moves else initial, tuple(moves),
                       state.dist, time.perf_counter() - started, stopped_at, sweeps)


def _run_share(state0: ReplicaState, cfg: SearchConfig, first: int, step: int) -> list[SearchTrace]:
    """``_run_replica`` of replicas first, first + step, first + 2 * step, ..."""
    return [_run_replica(state0, cfg, i) for i in range(first, cfg.replicas, step)]


# The replica workers of this process, in worker order: each one's process
# and the caller's end of its pipe.  The first call that needs them starts
# them, and one call at a time uses them.
_workers: list = []
_lock = threading.Lock()


def _serve(conn) -> None:
    """A worker process's life: for each task read, send back its share's traces, or its exception, once.

    It ends at end of file, once the caller's end of the pipe is closed,
    even when the caller was killed.  An interrupt is left to the caller,
    which stops the workers of an interrupted call.  An exception that
    would not survive the pipe is sent as a RuntimeError naming its type
    and message, so the caller re-raises it and this worker lives on.
    """
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            state0, cfg, first, step = conn.recv()
        except EOFError:
            return
        try:
            share = _run_share(state0, cfg, first, step)
        except Exception as exc:
            share = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                share = RuntimeError(f"replica worker raised {type(exc).__qualname__}: {exc}")
        conn.send(share)


def _stop_workers() -> None:
    """Stop and forget every worker; the next call that needs workers starts them afresh.

    The caller holds ``_lock``, or no other thread searches.
    """
    for proc, conn in _workers:
        conn.close()
        proc.terminate()
        proc.join()
    _workers.clear()


def _forget_workers() -> None:
    """In a forked child: close the inherited caller ends of the pipes and forget the parent's workers.

    A worker holding a copy of a caller end, its own included, would never
    read end of file on it, so it would outlive a killed caller.
    """
    global _lock
    for _, conn in _workers:
        conn.close()
    _workers.clear()
    _lock = threading.Lock()  # another thread may have held it at the fork


if hasattr(os, "register_at_fork"):  # Windows has no fork, and its workers inherit no pipe ends
    os.register_at_fork(after_in_child=_forget_workers)


def _live_workers(count: int) -> list:
    """The first ``count`` workers, all alive: one found dead stops them all, and missing ones start."""
    import multiprocessing  # deferred: a one-process run never needs it

    if not all(proc.is_alive() for proc, _ in _workers):
        _stop_workers()
    while len(_workers) < count:
        conn, theirs = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=_serve, args=(theirs,), daemon=True)
        _workers.append((proc, conn))  # listed before the fork, so the worker closes its copy of conn
        try:
            proc.start()
        except BaseException:
            _workers.pop()
            conn.close()
            raise
        finally:
            theirs.close()  # the worker's is then the only copy, so its death reads as end of file
    return _workers[:count]


@contextlib.contextmanager
def _death_reported(w: int, proc):
    """Report worker w's end of the pipe closing, the sign of its death, as one ChildProcessError.

    Only the worker holds that end, so it closes only when the worker
    exits.  A receive then reads end of file, or a reset when the worker
    left its task unread; a send finds the pipe broken.
    """
    try:
        yield
    except (EOFError, ConnectionError):
        proc.join()
        raise ChildProcessError(
            f"replica worker {w} exited with code {proc.exitcode} without sending its replicas"
        ) from None


def _run_replicas(state0: ReplicaState, cfg: SearchConfig, jobs: int) -> list[SearchTrace]:
    """Every replica's trace, in replica order, from ``jobs`` processes.

    The calling process runs its share while the workers run theirs.  The
    workers are started by the first call that needs them and serve every
    later call in this process, one call at a time: a second caller waits.
    A call sends each worker its task once and reads exactly one reply
    from it.  A worker's exception is re-raised here once every reply is
    read, and the workers are kept.  Any other failure stops every worker
    before it propagates, so no later call reads a stale reply: the
    caller's own exception or interrupt, or a worker that dies without
    sending, which is a ChildProcessError (an OSError, so the CLI reports
    it as one ``error:`` line).  The workers are daemons, so none outlives
    this process: they are stopped when it exits, and read end of file
    when it is killed.
    """
    jobs = max(1, min(jobs, cfg.replicas))
    if jobs == 1:
        return _run_share(state0, cfg, 0, 1)
    results: list = [None] * cfg.replicas
    with _lock:
        try:
            workers = _live_workers(jobs - 1)
            for w, (proc, conn) in enumerate(workers, 1):
                with _death_reported(w, proc):
                    conn.send((state0, cfg, w, jobs))
            results[::jobs] = _run_share(state0, cfg, 0, jobs)
            shares = []
            for w, (proc, conn) in enumerate(workers, 1):
                with _death_reported(w, proc):
                    shares.append(conn.recv())
        except BaseException:
            _stop_workers()
            raise
    for w, share in enumerate(shares, 1):
        if isinstance(share, BaseException):
            raise share
        results[w::jobs] = share
    return results


def run(graph: CountyGraph, plan0: list[int], cfg: SearchConfig, jobs: int = 1) -> RunResult:
    """Best plan over seeded replicas, run on ``jobs`` processes (the caller counts).

    Replica streams are spawned from the root seed, so results are
    reproducible and independent of scheduling; ties between replicas go
    to the lower index.  The starting state is built once, on the graph's
    node numbers, and each replica copies its district list and sums.
    With ``jobs`` > 1 each call sends the state and config to each worker
    process once; the workers outlive the call and serve later ones.
    Wherever it runs, a replica gives back its trace: its final gap is
    that of its last move, and its final plan is its district list as it
    is.
    """
    report = validate_plan(graph, plan0)
    if not report.ok:
        raise ValueError(f"invalid starting plan: {report.reason}")
    if not cfg.k < len(graph.nodes):
        raise ValueError("k must be smaller than the number of nodes")
    state0 = ReplicaState(graph, plan0)
    traces = tuple(_run_replicas(state0, cfg, jobs))
    best = min(range(cfg.replicas), key=lambda i: (traces[i].final_scaled, i))
    return RunResult(best, traces)
