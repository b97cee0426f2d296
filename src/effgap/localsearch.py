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

No worst-case approximation guarantee exists for this kind of strictly
improving single-node search: adversarial instances stall it arbitrarily
far from the optimum, so its value is empirical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .county import CountyGraph, DistrictPlan, NodeKey, validate_plan
from .core import VoteCounts, district_effgap

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


def _connected_without(
    graph: CountyGraph, members: set[NodeKey], removed: NodeKey
) -> bool:
    """Whether a connected district stays connected once `removed` leaves.

    The district must be connected with `removed` in it.  Then it stays
    connected exactly when one of removed's same-district neighbours
    reaches all the others, so the breadth-first search stops as soon as
    they are all reached.  Breadth first, because they are usually a
    couple of steps apart.
    """
    nodes = graph.nodes
    linked = [nb for nb in nodes[removed].neighbors if nb in members]
    if len(linked) < 2:
        return bool(linked)
    pending = set(linked[1:])
    seen = {removed, linked[0]}
    level = [linked[0]]
    while level:
        next_level = []
        for key in level:
            for nb in nodes[key].neighbors:
                if nb in members and nb not in seen:
                    if nb in pending:
                        pending.discard(nb)
                        if not pending:
                            return True
                    seen.add(nb)
                    next_level.append(nb)
        level = next_level
    return False


def _source_rejection(graph: CountyGraph, plan: DistrictPlan, node: NodeKey) -> str | None:
    """Why moving `node` out of its district is illegal whatever the target.

    Cheapest first: emptied, then the source population bound, then
    connectivity.  None when the source side allows the move.
    """
    source = plan.assignment[node]
    members = plan.members[source]
    if len(members) == 1:
        return "district emptied"
    pop = graph.nodes[node].votes.population()
    if plan.district_votes[source].population() - pop < plan.pop_lo:
        return "source below population bound"
    if not _connected_without(graph, members, node):
        return "source disconnected"
    return None


def move_is_legal(
    graph: CountyGraph, plan: DistrictPlan, node: NodeKey, target: int
) -> MoveReport:
    """Check a single-node reassignment.

    Legal when the target is a neighbor's district, the source district
    stays non-empty and connected, and both touched districts stay
    within the plan's population bounds.  Source-side reasons are
    decided before the target's; the plan's districts must be connected.
    """
    source = plan.assignment[node]
    if target == source:
        return MoveReport(False, "target equals current district")
    if target not in {plan.assignment[nb] for nb in graph.nodes[node].neighbors}:
        return MoveReport(False, "target district not adjacent to node")
    reason = _source_rejection(graph, plan, node)
    if reason is not None:
        return MoveReport(False, reason)
    pop = graph.nodes[node].votes.population()
    if plan.district_votes[target].population() + pop > plan.pop_hi:
        return MoveReport(False, "target above population bound")
    return MoveReport(True)


def _trial_value(
    graph: CountyGraph, plan: DistrictPlan, node: NodeKey, target: int, signed: int
) -> int:
    """Signed scaled gap after a hypothetical move; only two districts change."""
    source = plan.assignment[node]
    votes = graph.nodes[node].votes
    src = plan.district_votes[source]
    tgt = plan.district_votes[target]
    new_src = VoteCounts(src.party_a - votes.party_a, src.party_b - votes.party_b)
    new_tgt = VoteCounts(tgt.party_a + votes.party_a, tgt.party_b + votes.party_b)
    return (
        signed
        - district_effgap(src)
        - district_effgap(tgt)
        + district_effgap(new_src)
        + district_effgap(new_tgt)
    )


def run_iteration(
    graph: CountyGraph,
    plan: DistrictPlan,
    rng: np.random.Generator,
    iteration: int,
    k: int,
    best_improvement: bool = False,
) -> list[MoveRecord]:
    """One outer iteration; mutates the plan and returns accepted moves.

    Draws r uniform in 0..k, then r distinct nodes.  A drawn boundary
    node is processed once per iteration: the target-independent checks
    of ``move_is_legal`` run once, then its neighbors are scanned in key
    order, each needing only the target population bound, and the first
    (or, optionally, best) legal strictly improving reassignment is
    applied.
    """
    keys = graph.keys
    r = int(rng.integers(0, k + 1))
    if r == 0:
        return []
    picked = [keys[i] for i in rng.choice(len(keys), size=min(r, len(keys)), replace=False)]
    records = []
    signed = plan.signed_scaled_effgap()
    for node in picked:
        source = plan.assignment[node]
        neighbors = graph.nodes[node].neighbors
        if all(plan.assignment[nb] == source for nb in neighbors):
            continue  # interior node; nothing to try
        if _source_rejection(graph, plan, node) is not None:
            continue  # no target can take it
        room = plan.pop_hi - graph.nodes[node].votes.population()
        before_abs = abs(signed)
        best_choice: tuple[int, int] | None = None  # (new signed, target)
        for nb in neighbors:  # key order: neighbor tuples are stored sorted
            target = plan.assignment[nb]
            if target == source or plan.district_votes[target].population() > room:
                continue
            new_signed = _trial_value(graph, plan, node, target, signed)
            if abs(new_signed) >= before_abs:
                continue
            if not best_improvement:
                best_choice = (new_signed, target)
                break
            if best_choice is None or abs(new_signed) < abs(best_choice[0]):
                best_choice = (new_signed, target)
        if best_choice is not None:
            new_signed, target = best_choice
            records.append(MoveRecord(iteration, node, source, target, before_abs, abs(new_signed)))
            plan.move(graph, node, target)
            signed = new_signed
    return records


def _run_replica(
    graph: CountyGraph, plan0: DistrictPlan, cfg: SearchConfig, replica: int
) -> SearchTrace:
    import numpy as np  # deferred: only local search needs it, and it dominates import time

    started = time.perf_counter()
    seed_seq = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)[replica]
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    plan = plan0.copy()
    initial = plan.scaled_effgap()
    moves: list[MoveRecord] = []
    for iteration in range(cfg.mu):
        moves.extend(
            run_iteration(graph, plan, rng, iteration, cfg.k, cfg.best_improvement)
        )
    return SearchTrace(
        replica,
        cfg.seed,
        initial,
        plan.scaled_effgap(),
        tuple(moves),
        plan,
        time.perf_counter() - started,
    )


# A pool worker's search inputs, set once per worker process by
# _init_worker so that each task carries only its replica index.
_worker_inputs: tuple[CountyGraph, DistrictPlan, SearchConfig] | None = None


def _init_worker(graph: CountyGraph, plan0: DistrictPlan, cfg: SearchConfig) -> None:
    global _worker_inputs
    _worker_inputs = (graph, plan0, cfg)


def _run_worker_replica(replica: int) -> SearchTrace:
    return _run_replica(*_worker_inputs, replica)


def run(
    graph: CountyGraph, plan0: DistrictPlan, cfg: SearchConfig, jobs: int = 1
) -> RunResult:
    """Best plan over seeded replicas.

    Replica streams are spawned from the root seed, so results are
    reproducible and independent of scheduling; ties between replicas go
    to the lower index.  Pool workers receive the graph, plan and config
    once each, when they start, and each task only a replica index.
    """
    report = validate_plan(graph, plan0)
    if not report.ok:
        raise ValueError(f"invalid starting plan: {report.reason}")
    if not cfg.k < len(graph.nodes):
        raise ValueError("k must be smaller than the number of nodes")
    if jobs > 1 and cfg.replicas > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, cfg.replicas),
            initializer=_init_worker,
            initargs=(graph, plan0, cfg),
        ) as pool:
            traces = list(pool.map(_run_worker_replica, range(cfg.replicas)))
    else:
        traces = [_run_replica(graph, plan0, cfg, i) for i in range(cfg.replicas)]
    best = min(range(cfg.replicas), key=lambda i: (traces[i].final_scaled, i))
    return RunResult(traces[best].final_plan, best, tuple(traces))
