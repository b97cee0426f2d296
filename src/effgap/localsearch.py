"""Randomized local search over county district plans.

Each outer iteration draws a random handful of nodes; a drawn boundary
node is reassigned to a neighboring district when the move keeps every
district connected and within the frozen population bounds and strictly
lowers the plan's total absolute gap.  The checks on the node's own
district do not depend on the target, so they run first and once per
drawn node.  The connectivity check assumes the district is connected
before the move: the starting plan is validated and every accepted move
keeps it so.  Runs are reproducible: replica streams derive from one
root seed, nodes are drawn from a named generator, and neighbors are
scanned in key order.

The search works on the graph's node numbers: node i is ``graph.keys[i]``
and ``graph.adj[i]`` its neighbours, both built by ``ingest``.  A replica
searches on a ReplicaState, which reads those two tables as they are,
holds each node's votes as ints, and keeps each district's members, vote
sums and gap and the plan's signed gap.  A drawn node's source gap is
computed once and each target's in one step, and an accepted move
updates the two districts it touches.  Pool workers send back only the
moves and the final district of each node; the DistrictPlan is built
once, at the end.

No worst-case approximation guarantee exists for this kind of strictly
improving single-node search: adversarial instances stall it arbitrarily
far from the optimum, so its value is empirical.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .county import CountyGraph, DistrictPlan, NodeKey, _reaches, validate_plan

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "numpy-pcg64-seedsequence-spawn"


@dataclass(frozen=True)
class SearchConfig:
    mu: int = 100  # outer iterations
    k: int = 20  # per-iteration node budget; the draw is uniform on 0..k
    seed: int = 0
    replicas: int = 1
    best_improvement: bool = False  # default is first improvement in key order

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")


@dataclass(frozen=True)
class MoveReport:
    ok: bool
    reason: str | None = None


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
    final_plan: DistrictPlan
    wall_time: float = 0.0  # informational; excluded from the byte-stable text

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
    best_plan: DistrictPlan
    best_replica: int
    traces: tuple[SearchTrace, ...]


def _gap(party_a: int, pop: int) -> int:
    """``district_effgap`` of a district with these party-A votes and population."""
    return 4 * party_a - 3 * pop if 2 * party_a >= pop else 4 * party_a - pop


class ReplicaState:
    """One replica's plan on the graph's node numbers, with per-district sums kept current.

    ``keys`` and ``adj`` are the graph's, ``node_a[i]`` and ``node_pop[i]``
    node i's votes, and ``dist[i]`` its district.  Each district keeps its
    member set, party-A votes, population and ``district_effgap``, and
    ``signed`` is the sum of those gaps, so a move updates two districts
    and the sum in O(1).
    """

    __slots__ = ("keys", "adj", "node_a", "node_pop", "district_ids", "pop_lo", "pop_hi",
                 "dist", "members", "party_a", "pop", "gap", "signed")

    def __init__(self, graph: CountyGraph, plan: DistrictPlan) -> None:
        votes = [node.votes for node in graph.nodes.values()]
        self.keys, self.adj = graph.keys, graph.adj
        self.node_a = tuple(v.party_a for v in votes)
        self.node_pop = tuple(v.population() for v in votes)
        self.district_ids = plan.district_ids
        self.pop_lo = plan.pop_lo
        self.pop_hi = plan.pop_hi
        self._set_dist(list(map(plan.assignment.__getitem__, self.keys)))

    def _set_dist(self, dist: list[int]) -> None:
        """Make ``dist`` the districts and recompute every district's sums."""
        self.dist = dist
        self.members = members = {d: set() for d in self.district_ids}
        for i, d in enumerate(dist):
            members[d].add(i)
        self.party_a = {d: sum(map(self.node_a.__getitem__, m)) for d, m in members.items()}
        self.pop = {d: sum(map(self.node_pop.__getitem__, m)) for d, m in members.items()}
        self.gap = {d: _gap(self.party_a[d], self.pop[d]) for d in self.district_ids}
        self.signed = sum(self.gap.values())

    def with_dist(self, dist: list[int]) -> "ReplicaState":
        """The state of the same graph and bounds with ``dist`` as its districts."""
        state = copy.copy(self)
        state._set_dist(dist)
        return state

    def source_rejection(self, i: int) -> str | None:
        """Why moving node i out of its district is illegal whatever the target.

        Cheapest first: emptied, then the source population bound, then
        connectivity.  None when the source side allows the move.
        """
        dist, adj = self.dist, self.adj
        source = dist[i]
        members = self.members[source]
        if len(members) == 1:
            return "district emptied"
        if self.pop[source] - self.node_pop[i] < self.pop_lo:
            return "source below population bound"
        # The district is connected with i in it, so it stays connected
        # exactly when one of i's neighbours in it reaches all the others,
        # which are usually a couple of steps apart.
        linked = [j for j in adj[i] if dist[j] == source]
        if not linked or not _reaches(adj, linked[0], members, (i,), linked[1:]):
            return "source disconnected"
        return None

    def move(self, i: int, target: int) -> None:
        """Reassign node i; the caller is responsible for legality."""
        source = self.dist[i]
        a, p = self.node_a[i], self.node_pop[i]
        self.dist[i] = target
        self.members[source].remove(i)
        self.members[target].add(i)
        for d, da, dp in ((source, -a, -p), (target, a, p)):
            self.party_a[d] += da
            self.pop[d] += dp
            gap = _gap(self.party_a[d], self.pop[d])
            self.signed += gap - self.gap[d]
            self.gap[d] = gap

    def to_plan(self) -> DistrictPlan:
        return DistrictPlan(dict(zip(self.keys, self.dist)), self.district_ids, self.pop_lo, self.pop_hi)


def move_is_legal(
    graph: CountyGraph, plan: DistrictPlan, node: NodeKey, target: int
) -> MoveReport:
    """Check a single-node reassignment.

    Legal when the target is a neighbor's district, the source district
    stays non-empty and connected, and both touched districts stay
    within the plan's population bounds.  Source-side reasons are
    decided before the target's; the plan's districts must be connected.
    A node not in the graph is a ValueError.
    """
    i = graph.index.get(node)
    if i is None:
        raise ValueError(f"unknown node {node[0]}:{node[1]}")
    state = ReplicaState(graph, plan)
    dist = state.dist
    if target == dist[i]:
        return MoveReport(False, "target equals current district")
    if target not in {dist[j] for j in state.adj[i]}:
        return MoveReport(False, "target district not adjacent to node")
    reason = state.source_rejection(i)
    if reason is not None:
        return MoveReport(False, reason)
    if state.pop[target] > state.pop_hi - state.node_pop[i]:
        return MoveReport(False, "target above population bound")
    return MoveReport(True)


def run_iteration(
    state: ReplicaState,
    rng: np.random.Generator,
    iteration: int,
    k: int,
    best_improvement: bool = False,
) -> list[MoveRecord]:
    """One outer iteration; mutates the state and returns accepted moves.

    Draws r uniform in 0..k, then r distinct nodes.  A drawn boundary
    node is processed once per iteration: the target-independent checks
    of ``move_is_legal`` run once, then its neighbors are scanned in key
    order, each needing only the target population bound, and the first
    (or, optionally, best) legal strictly improving reassignment is
    applied.
    """
    r = int(rng.integers(0, k + 1))
    if r == 0:
        return []
    dist, adj, node_a, node_pop = state.dist, state.adj, state.node_a, state.node_pop
    party_a, pop, gap = state.party_a, state.pop, state.gap
    n = len(dist)
    records = []
    for i in rng.choice(n, size=min(r, n), replace=False).tolist():
        source = dist[i]
        neighbors = adj[i]
        for j in neighbors:
            if dist[j] != source:
                break
        else:
            continue  # interior node; nothing to try
        if state.source_rejection(i) is not None:
            continue  # no target can take it
        a, p = node_a[i], node_pop[i]
        room = state.pop_hi - p
        before_abs = abs(state.signed)
        # The signed gap with i taken out of its district; each target adds its own change.
        without = state.signed - gap[source] + _gap(party_a[source] - a, pop[source] - p)
        best_signed = best_target = None
        for j in neighbors:  # key order
            target = dist[j]
            if target == source or pop[target] > room:
                continue
            new_signed = without - gap[target] + _gap(party_a[target] + a, pop[target] + p)
            if abs(new_signed) >= before_abs:
                continue
            if best_target is None or abs(new_signed) < abs(best_signed):
                best_signed, best_target = new_signed, target
            if not best_improvement:
                break
        if best_target is not None:
            records.append(
                MoveRecord(iteration, state.keys[i], source, best_target, before_abs, abs(best_signed))
            )
            state.move(i, best_target)
    return records


def _run_replica(
    state0: ReplicaState, cfg: SearchConfig, replica: int
) -> tuple[tuple[MoveRecord, ...], ReplicaState, float]:
    """(accepted moves, final state, wall time) of one replica."""
    import numpy as np  # deferred: only local search needs it, and it dominates import time

    started = time.perf_counter()
    seed_seq = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)[replica]
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    state = state0.with_dist(list(state0.dist))
    moves: list[MoveRecord] = []
    for iteration in range(cfg.mu):
        moves.extend(run_iteration(state, rng, iteration, cfg.k, cfg.best_improvement))
    return tuple(moves), state, time.perf_counter() - started


# A pool worker's search inputs, set once per worker process by
# _init_worker so that each task carries only its replica index.
_worker_inputs: tuple[ReplicaState, SearchConfig] | None = None


def _init_worker(state0: ReplicaState, cfg: SearchConfig) -> None:
    global _worker_inputs
    _worker_inputs = (state0, cfg)


def _run_worker_replica(replica: int) -> tuple[tuple[MoveRecord, ...], list[int], float]:
    """A replica run in a pool worker; only the final ``dist`` list goes back."""
    moves, state, wall_time = _run_replica(*_worker_inputs, replica)
    return moves, state.dist, wall_time


def run(
    graph: CountyGraph, plan0: DistrictPlan, cfg: SearchConfig, jobs: int = 1
) -> RunResult:
    """Best plan over seeded replicas.

    Replica streams are spawned from the root seed, so results are
    reproducible and independent of scheduling; ties between replicas go
    to the lower index.  The starting state is built once, on the graph's
    node numbers, and each replica copies only its ``dist`` list.  Pool
    workers receive the state and config once each, when they start; each
    task carries only a replica index and returns the moves and the final
    ``dist`` list, from which the plan is built here.
    """
    report = validate_plan(graph, plan0)
    if not report.ok:
        raise ValueError(f"invalid starting plan: {report.reason}")
    if not cfg.k < len(graph.nodes):
        raise ValueError("k must be smaller than the number of nodes")
    state0 = ReplicaState(graph, plan0)
    if jobs > 1 and cfg.replicas > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, cfg.replicas),
            initializer=_init_worker,
            initargs=(state0, cfg),
        ) as pool:
            results = [
                (moves, state0.with_dist(dist), wall_time)
                for moves, dist, wall_time in pool.map(_run_worker_replica, range(cfg.replicas))
            ]
    else:
        results = [_run_replica(state0, cfg, i) for i in range(cfg.replicas)]
    initial = abs(state0.signed)
    traces = tuple(
        SearchTrace(i, cfg.seed, initial, abs(state.signed), moves, state.to_plan(), wall_time)
        for i, (moves, state, wall_time) in enumerate(results)
    )
    best = min(range(cfg.replicas), key=lambda i: (traces[i].final_scaled, i))
    return RunResult(traces[best].final_plan, best, traces)
