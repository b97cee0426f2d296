"""Shared builders for grid and county test instances."""

from __future__ import annotations

import csv
import io
import itertools
import multiprocessing
import random

import pytest

from effgap import grid, localsearch
from effgap.core import ZERO_VOTES, Report, VoteCounts, district_effgap
from effgap.county import (
    CSV_COLUMNS,
    CountyGraph,
    IngestError,
    IngestResult,
    NodeKey,
)
from effgap.grid import (
    Cell,
    GridPartition,
    GridPolygon,
    _enumerate_mask_partitions,
    _MaskIndex,
    _masks_to_partition,
    population_window,
    validate_polygon,
)
from effgap.localsearch import MoveRecord, SearchConfig, SearchTrace
from effgap.yconvex import ACTIVE, FINISHED, UNSTARTED

# A patch of a module reaches worker processes only when they are forked.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the start method is not fork"
)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Each test starts without replica workers, so the workers it uses are
    forked with its patches, and ends with none: it stops those it started."""
    localsearch._stop_workers()
    yield
    localsearch._stop_workers()
    assert multiprocessing.active_children() == []


def neighbors4(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    """The cell's four grid neighbours, inside the grid or not."""
    r, c = cell
    return ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))


def neighbors(graph: CountyGraph, key: NodeKey) -> tuple[NodeKey, ...]:
    """The node's neighbours' keys, in key order."""
    return tuple(map(graph.nodes.__getitem__, graph.adj[graph.index[key]]))


def node_votes(graph: CountyGraph) -> dict[NodeKey, VoteCounts]:
    """Each node's VoteCounts by key, in key order, from the graph's two vote tables."""
    return {key: VoteCounts(a, pop - a) for key, a, pop in zip(graph.nodes, graph.node_a, graph.node_pop)}


def serialize_graph(graph: CountyGraph) -> str:
    """Canonical CSV for the graph; ingest(serialize_graph(g)) reproduces g.

    The graph keeps no County names, so each row's County cell repeats its
    county id.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for (d, cid), votes in node_votes(graph).items():
        nbs = ", ".join(f"{nb_d}:{nb_cid}" for nb_d, nb_cid in neighbors(graph, (d, cid)))
        writer.writerow([d, cid, cid, votes.party_b, votes.party_a, nbs])
    return buf.getvalue()


def read_partition(text: str) -> GridPartition:
    """A partition from the ``row col label`` lines of ``grid.write_partition``."""
    labels = {}
    for ln in text.splitlines():
        if ln.strip():
            r, c, lab = (int(x) for x in ln.split())
            labels[(r, c)] = lab
    return GridPartition(labels)


def partition_vote_totals(p: GridPolygon, q: GridPartition, kappa: int) -> list[VoteCounts]:
    """Per-label vote totals, labels 1..kappa, for feeding the plan-level statistics."""
    totals = [ZERO_VOTES] * kappa
    for cell, lab in q.labels.items():
        totals[lab - 1] = totals[lab - 1] + p.votes[cell]
    return totals


def cells_connected(cells) -> bool:
    """Set-based reference for 4-connectivity: a flood fill over cell tuples."""
    cells = set(cells)
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors4(stack.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == cells


def county_connected(graph: CountyGraph, members) -> bool:
    """Set-based reference for county connectivity: a flood fill over node keys."""
    members = set(members)
    if not members:
        return False
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors(graph, stack.pop()):
            if nb in members and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == members


def validate_polygon_reference(p: GridPolygon) -> tuple[bool, str | None, tuple[int, int] | None]:
    """Set-based reference for validate_polygon: (ok, reason, witness).

    Floods the polygon from its smallest cell, then the empty cells of a
    one-cell frame around the grid from the frame corner, and reports the
    first unreached cell of a row-major scan.
    """
    cells = p.cells
    if not cells:
        return False, "empty", None
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors4(stack.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != cells:
        return False, "disconnected", min(cells - seen)
    outside = {(-1, -1)}
    stack = [(-1, -1)]
    while stack:
        for nb in neighbors4(stack.pop()):
            r, c = nb
            if -1 <= r <= p.rows and -1 <= c <= p.cols and nb not in cells and nb not in outside:
                outside.add(nb)
                stack.append(nb)
    for r in range(p.rows):
        for c in range(p.cols):
            if (r, c) not in cells and (r, c) not in outside:
                return False, "hole", (r, c)
    return True, None, None


def polygon(votes: dict[tuple[int, int], tuple[int, int]], rows=None, cols=None) -> GridPolygon:
    """Polygon from {(row, col): (party_a, party_b)}."""
    rows = rows if rows is not None else 1 + max(r for r, _ in votes)
    cols = cols if cols is not None else 1 + max(c for _, c in votes)
    return GridPolygon(rows, cols, {cell: VoteCounts(a, b) for cell, (a, b) in votes.items()})


def uniform_rect(m: int, n: int, pop: int = 1, a_cells=()) -> GridPolygon:
    votes = {}
    for r in range(m):
        for c in range(n):
            a = pop if (r, c) in set(a_cells) else 0
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(m, n, votes)


def random_even_rect(rng: random.Random, m: int, n: int) -> GridPolygon:
    """An m x n rectangle with 0-2 voters of each party per cell and an even
    population, so that the exact kappa-2 window is not empty.  On 3x3 and
    3x4 rectangles some equipartitions are not y-convex."""
    while True:
        votes = {(r, c): VoteCounts(rng.randint(0, 2), rng.randint(0, 2)) for r in range(m) for c in range(n)}
        if sum(v.population() for v in votes.values()) % 2 == 0:
            return GridPolygon(m, n, votes)


def random_blob(rng: random.Random, size: int, max_dim: int = 5) -> set[tuple[int, int]]:
    """Random hole-free 4-connected cell set of the requested size."""
    while True:
        cells = {(rng.randrange(max_dim), rng.randrange(max_dim))}
        while len(cells) < size:
            r, c = rng.choice(sorted(cells))
            dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
            rr, cc = r + dr, c + dc
            if 0 <= rr < max_dim and 0 <= cc < max_dim:
                cells.add((rr, cc))
        probe = GridPolygon(max_dim, max_dim, {cell: VoteCounts(0, 0) for cell in cells})
        if validate_polygon(probe).ok:
            return cells


def random_polygon(rng: random.Random, size: int, max_pop: int = 4, uniform: bool = False) -> GridPolygon:
    cells = random_blob(rng, size)
    votes = {}
    for cell in cells:
        pop = 1 if uniform else rng.randint(0, max_pop)
        a = rng.randint(0, pop)
        votes[cell] = VoteCounts(a, pop - a)
    rows = 1 + max(r for r, _ in cells)
    cols = 1 + max(c for _, c in cells)
    return GridPolygon(rows, cols, votes)


def random_column_polygon(rng: random.Random, max_cells: int = 12, uniform: bool = False) -> GridPolygon:
    """Random polygon whose every column is a single vertical run."""
    while True:
        cols = rng.randint(1, 4)
        runs = []
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(0, 3)
        runs.append((lo, hi))
        for _ in range(cols - 1):
            plo, phi = runs[-1]
            lo = rng.randint(max(0, plo - 2), phi)
            hi = rng.randint(max(lo, plo), min(lo + 3, phi + 2))
            runs.append((lo, hi))
        cells = {(r, c) for c, (lo, hi) in enumerate(runs) for r in range(lo, hi + 1)}
        if len(cells) > max_cells:
            continue
        votes = {}
        for cell in cells:
            pop = 1 if uniform else rng.randint(0, 4)
            a = rng.randint(0, pop)
            votes[cell] = VoteCounts(a, pop - a)
        rows = 1 + max(r for r, _ in cells)
        return GridPolygon(rows, cols, votes)


def county_grid_csv(seed: int, side: int = 12, bands: int = 4) -> str:
    """County CSV of a side x side grid cut into bands x bands districts.

    Band edges are jittered and node populations vary, so the frozen
    population bounds leave local search room to move many nodes.
    """
    rng = random.Random(seed)
    step = side // bands
    row_cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]
    col_cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]

    def district(r: int, c: int) -> int:
        br = next(i for i in range(bands) if row_cuts[i] <= r < row_cuts[i + 1])
        bc = next(i for i in range(bands) if col_cuts[i] <= c < col_cuts[i + 1])
        return br * bands + bc + 1

    lines = ["District,County_id,County,Republicans,Democrats,Neighbors"]
    for r in range(side):
        for c in range(side):
            pop = rng.randint(80, 120)
            dem = rng.randint(pop * 3 // 10, pop * 7 // 10)
            nbs = ", ".join(
                f"{district(rr, cc)}:g{rr}_{cc}"
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < side and 0 <= cc < side
            )
            lines.append(f'{district(r, c)},g{r}_{c},G,{pop - dem},{dem},"{nbs}"')
    return "\n".join(lines) + "\n"


def random_county_csv(seed: int, nodes: int, kappa: int) -> str:
    """County CSV of a random connected graph cut into kappa connected districts.

    The graph is a random tree plus nodes // 2 random edges.  Districts
    grow from kappa random nodes, one neighbour at a time, so each stays
    connected; each party gets 0 to 20 votes per node.
    """
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(nodes)]
    edges = [(rng.randrange(i), i) for i in range(1, nodes)]
    edges += [tuple(rng.sample(range(nodes), 2)) for _ in range(nodes // 2)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    district = [0] * nodes
    for d, i in enumerate(rng.sample(range(nodes), kappa), start=1):
        district[i] = d
    while not all(district):
        i = rng.choice([i for i in range(nodes) if district[i]])
        free = [j for j in sorted(adj[i]) if not district[j]]
        if free:
            district[rng.choice(free)] = district[i]
    lines = ["District,County_id,County,Republicans,Democrats,Neighbors"]
    for i in range(nodes):
        nbs = ", ".join(f"{district[j]}:n{j}" for j in sorted(adj[i]))
        lines.append(f'{district[i]},n{i},N,{rng.randint(0, 20)},{rng.randint(0, 20)},"{nbs}"')
    return "\n".join(lines) + "\n"


def oracle_graphs() -> list[str]:
    """Thirty county graphs small enough for the exhaustive oracle."""
    graphs = [county_grid_csv(seed, side=4, bands=2) for seed in range(10)]
    graphs += [random_county_csv(seed, 6 + seed % 7, 2 + seed % 3) for seed in range(10)]
    graphs += [random_county_csv(100 + s, 13 + s % 6, 2 + s % 3) for s in range(10)]
    return graphs


def partition_county_csv(p: GridPolygon, q: GridPartition) -> str:
    """County CSV of a polygon cut by a partition, one node per cell.

    A cell's District is its label and its County_id ``r{r}c{c}``; its
    neighbours are its 4-neighbours inside the polygon.
    """
    lines = [",".join(CSV_COLUMNS)]
    for cell in sorted(p.votes):
        votes = p.votes[cell]
        nbs = ", ".join(f"{q.labels[nb]}:r{nb[0]}c{nb[1]}" for nb in neighbors4(cell) if nb in p.votes)
        lines.append(f'{q.labels[cell]},r{cell[0]}c{cell[1]},G,{votes.party_b},{votes.party_a},"{nbs}"')
    return "\n".join(lines) + "\n"


def county_index(graph: CountyGraph) -> _MaskIndex:
    """The oracle's mask index of a county graph: bit i is node i, ``graph.nodes[i]``."""
    return _MaskIndex(graph.nodes, graph.node_a, graph.node_pop, graph.adj)


def assignment(graph: CountyGraph, dist: list[int]) -> dict[NodeKey, int]:
    """The plan as a node key -> district dict, in key order."""
    return dict(zip(graph.nodes, dist))


class _PlanSums:
    """A key -> district dict with its districts' members and VoteCounts
    sums, kept current by ``move``; ``graph`` gives the ids and bounds, and
    ``node_votes`` each node's VoteCounts by key."""

    def __init__(self, graph: CountyGraph, dist: list[int]):
        self.graph = graph
        self.node_votes = node_votes(graph)
        self.assignment = assignment(graph, dist)
        self.members: dict[int, set[NodeKey]] = {d: set() for d in graph.district_ids}
        self.votes: dict[int, VoteCounts] = {d: ZERO_VOTES for d in graph.district_ids}
        for key, d in self.assignment.items():
            self.members[d].add(key)
            self.votes[d] = self.votes[d] + self.node_votes[key]

    def signed_scaled_effgap(self) -> int:
        return sum(district_effgap(v) for v in self.votes.values())

    def move(self, node: NodeKey, target: int) -> None:
        source = self.assignment[node]
        votes = self.node_votes[node]
        self.assignment[node] = target
        self.members[source].discard(node)
        self.members[target].add(node)
        self.votes[source] = self.votes[source] - votes
        self.votes[target] = self.votes[target] + votes


def _initial_plan_reference(
    nodes: dict[NodeKey, VoteCounts],
) -> tuple[list[int], tuple[int, ...], int, int]:
    """The District column's plan, its district ids and its population
    bounds, summing one VoteCounts per node; `nodes` is in key order."""
    dist = [key[0] for key in nodes]
    district_ids = tuple(sorted(set(dist)))
    totals: dict[int, VoteCounts] = {d: ZERO_VOTES for d in district_ids}
    for key, votes in nodes.items():
        totals[key[0]] = totals[key[0]] + votes
    pops = [totals[d].population() for d in district_ids]
    return dist, district_ids, min(pops), max(pops)


def ingest_reference(text: str) -> IngestResult:
    """Reference county parser: csv.DictReader rows, every neighbor token
    parsed, and a symmetry check that sorts every neighbor set.

    Same graph, plan, warnings and errors as ``ingest`` on every input whose
    rows all have six fields; on other rows it fails differently.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or list(reader.fieldnames) != CSV_COLUMNS:
        raise IngestError(
            f"header must be exactly {','.join(CSV_COLUMNS)}; got {reader.fieldnames}"
        )
    rows = []
    row_of: dict[NodeKey, int] = {}
    for row_no, row in enumerate(reader, start=2):
        try:
            district = int(row["District"])
            county_id = row["County_id"].strip()
            if not county_id or ":" in county_id or "," in county_id:
                raise ValueError(f"county id {county_id!r} empty or contains ':' or ','")
            republicans = int(row["Republicans"])
            democrats = int(row["Democrats"])
        except (TypeError, ValueError) as exc:
            raise IngestError(f"row {row_no}: {exc}") from exc
        if republicans < 0 or democrats < 0:
            raise IngestError(f"row {row_no}: negative vote count")
        key = (district, county_id)
        if key in row_of:
            raise IngestError(
                f"row {row_no}: duplicate county key {district}:{county_id} "
                f"(first seen at row {row_of[key]})"
            )
        row_of[key] = row_no
        rows.append((row_no, key, democrats, republicans, row["Neighbors"]))
    if not rows:
        raise IngestError("no data rows")
    if sum(democrats + republicans for _, _, democrats, republicans, _ in rows) == 0:
        raise IngestError("total vote count is 0")

    neighbor_sets: dict[NodeKey, set[NodeKey]] = {key: set() for _, key, *_ in rows}
    for row_no, key, _, _, raw in rows:
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            head, sep, tail = token.partition(":")
            try:
                if not sep or not tail:
                    raise ValueError(f"neighbor token {token!r} is not 'district:county_id'")
                nb = (int(head), tail.strip())
            except ValueError as exc:
                raise IngestError(f"row {row_no}: {exc}") from exc
            if nb not in neighbor_sets:
                raise IngestError(f"row {row_no}: unknown neighbor {token}")
            if nb == key:
                raise IngestError(f"row {row_no}: node lists itself as neighbor")
            neighbor_sets[key].add(nb)

    warnings = []
    for key, nbs in sorted(neighbor_sets.items()):
        for nb in sorted(nbs):
            if key not in neighbor_sets[nb]:
                neighbor_sets[nb].add(key)
                warnings.append(
                    f"one-sided neighbor listing {key[0]}:{key[1]} -> {nb[0]}:{nb[1]}; symmetrized"
                )

    nodes: dict[NodeKey, VoteCounts] = {}
    for _, key, democrats, republicans, _ in sorted(rows, key=lambda r: r[1]):
        nodes[key] = VoteCounts(democrats, republicans)
    number = {key: i for i, key in enumerate(nodes)}
    adj = tuple(tuple(number[nb] for nb in sorted(neighbor_sets[key])) for key in nodes)
    plan, district_ids, pop_lo, pop_hi = _initial_plan_reference(nodes)
    graph = CountyGraph(
        tuple(nodes),
        tuple(votes.party_a for votes in nodes.values()),
        tuple(votes.population() for votes in nodes.values()),
        adj, district_ids, pop_lo, pop_hi,
    )

    if not county_connected(graph, nodes):
        raise IngestError("graph disconnected")
    for d in district_ids:
        members = {key for key in nodes if key[0] == d}
        if not county_connected(graph, members):
            member_rows = sorted(row_of[k] for k in members)
            raise IngestError(f"initial district {d} disconnected (rows {member_rows})")
    return IngestResult(graph, plan, tuple(warnings))


def validate_plan_reference(graph: CountyGraph, dist: list[int]) -> Report:
    """Reference plan check on a key -> district dict, summing one VoteCounts per node."""
    if len(dist) != len(graph.nodes):
        return Report(False, "assignment does not cover the graph")
    recomputed: dict[int, VoteCounts] = {d: ZERO_VOTES for d in graph.district_ids}
    assigned: dict[int, set[NodeKey]] = {d: set() for d in graph.district_ids}
    votes = node_votes(graph)
    for key, d in assignment(graph, dist).items():
        if d not in recomputed:
            return Report(False, f"node assigned to unknown district {d}")
        recomputed[d] = recomputed[d] + votes[key]
        assigned[d].add(key)
    for d in graph.district_ids:
        members = assigned[d]
        if not members:
            return Report(False, f"district {d} empty")
        if not county_connected(graph, members):
            return Report(False, f"district {d} disconnected")
        pop = recomputed[d].population()
        if not graph.pop_lo <= pop <= graph.pop_hi:
            return Report(
                False,
                f"district {d} population {pop} outside [{graph.pop_lo}, {graph.pop_hi}]",
            )
    return Report(True)


def _source_rejection_reference(sums: _PlanSums, node: NodeKey) -> str | None:
    """The dict-based source-side check: emptied, source bound, connectivity."""
    source = sums.assignment[node]
    members = sums.members[source]
    if len(members) == 1:
        return "district emptied"
    pop = sums.node_votes[node].population()
    if sums.votes[source].population() - pop < sums.graph.pop_lo:
        return "source below population bound"
    if not county_connected(sums.graph, members - {node}):
        return "source disconnected"
    return None


def _trial_value_reference(sums: _PlanSums, node: NodeKey, target: int, signed: int) -> int:
    """Signed scaled gap after a hypothetical move, from VoteCounts."""
    votes = sums.node_votes[node]
    src = sums.votes[sums.assignment[node]]
    tgt = sums.votes[target]
    return (
        signed
        - district_effgap(src)
        - district_effgap(tgt)
        + district_effgap(src - votes)
        + district_effgap(tgt + votes)
    )


def _move_reference(sums: _PlanSums, node: NodeKey) -> int | None:
    """The node's first legal, strictly improving target in key order, its
    source side checked first; None when it has none."""
    graph, assigned = sums.graph, sums.assignment
    source = assigned[node]
    nbs = neighbors(graph, node)
    if all(assigned[nb] == source for nb in nbs) or _source_rejection_reference(sums, node) is not None:
        return None
    room = graph.pop_hi - sums.node_votes[node].population()
    signed = sums.signed_scaled_effgap()
    for nb in nbs:
        target = assigned[nb]
        if (target != source and sums.votes[target].population() <= room
                and abs(_trial_value_reference(sums, node, target, signed)) < abs(signed)):
            return target
    return None


def run_reference(graph: CountyGraph, plan0: list[int], cfg: SearchConfig) -> list[SearchTrace]:
    """Every replica's trace from the dict-based search on a key -> district
    dict, run in-process, with numpy's own generator drawing the nodes: the
    same draws and the same rule.  A replica stops only when an iteration
    accepts nothing and no node of its plan has a move, since no later
    iteration can then change the plan."""
    np = pytest.importorskip("numpy")

    traces = []
    for replica in range(cfg.replicas):
        seed_seq = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)[replica]
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        sums = _PlanSums(graph, plan0)
        initial = abs(sums.signed_scaled_effgap())
        moves, checked = [], None  # len(moves) when the plan was last checked
        for iteration in range(cfg.mu):
            r = int(rng.integers(0, cfg.k + 1))
            made = len(moves)
            for i in rng.choice(len(graph.nodes), size=min(r, len(graph.nodes)), replace=False) if r else ():
                node = graph.nodes[i]
                target = _move_reference(sums, node)
                if target is not None:
                    source, before = sums.assignment[node], abs(sums.signed_scaled_effgap())
                    sums.move(node, target)
                    moves.append(MoveRecord(iteration, node, source, target, before, abs(sums.signed_scaled_effgap())))
            if len(moves) == made != checked:  # an idle iteration on a plan not yet checked
                if all(_move_reference(sums, key) is None for key in graph.nodes):
                    break
                checked = len(moves)
        final = abs(sums.signed_scaled_effgap())
        final_plan = [sums.assignment[key] for key in graph.nodes]
        traces.append(SearchTrace(replica, cfg.seed, initial, final, tuple(moves), final_plan))
    return traces


TOY_COUNTY_CSV = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,40,60,"1:A2, 2:B1"
1,A2,Beta,30,20,"1:A1, 2:B2"
2,B1,Gamma,50,10,"1:A1, 2:B2"
2,B2,Delta,60,40,"1:A2, 2:B1"
"""


# ---------------------------------------------------------------------------
# References for the exact solvers' and the search's shortcuts
# ---------------------------------------------------------------------------


def move_is_legal_reference(graph: CountyGraph, dist: list[int], node: NodeKey, target: int) -> Report:
    """``move_is_legal`` on a key -> district dict: the dict-based source-side
    check, then the target's population bound, from VoteCounts sums."""
    if node not in graph.index:
        raise ValueError(f"unknown node {node[0]}:{node[1]}")
    sums = _PlanSums(graph, dist)
    if target == sums.assignment[node]:
        return Report(False, "target equals current district")
    if target not in {sums.assignment[nb] for nb in neighbors(graph, node)}:
        return Report(False, "target district not adjacent to node")
    reason = _source_rejection_reference(sums, node)
    if reason is None and sums.votes[target].population() + sums.node_votes[node].population() > graph.pop_hi:
        reason = "target above population bound"
    return Report(reason is None, reason)


def enumerate_equipartitions(p: GridPolygon, kappa: int, window: tuple[int, int] | None = None):
    """Every connected kappa-partition of `p` with populations in the window
    (by default the exact one), as the oracle enumerates them."""
    lo, hi = window or population_window(p.total_votes().population(), kappa)
    idx = p.mask_index
    return (_masks_to_partition(idx, masks) for masks in _enumerate_mask_partitions(idx, kappa, lo, hi))


def enumerate_mask_partitions_reference(idx: _MaskIndex, kappa: int, lo: int, hi: int):
    """The oracle's enumeration with every two-class remainder walked anew.

    ``grid._connected_submasks`` is looked up at each call, so a test can
    count the walks of this reference and of the oracle alike.
    """
    if lo > hi or idx.full == 0 or kappa > len(idx.index):
        return

    def rec(remaining: int, pop_left: int, parts_left: int, acc: tuple[int, ...]):
        if parts_left == 1:
            if lo <= pop_left <= hi and idx.connected(remaining):
                yield acc + (remaining,)
            return
        last = parts_left == 2
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in grid._connected_submasks(idx, seed, remaining, hi, last):
            if pop < lo:
                continue
            rest_pop = pop_left - pop
            if not (parts_left - 1) * lo <= rest_pop <= (parts_left - 1) * hi:
                continue
            rest = remaining & ~sub
            if rest == 0:
                continue
            if last:
                if idx.connected(rest):
                    yield acc + (sub, rest)
            else:
                yield from rec(rest, rest_pop, parts_left - 1, acc + (sub,))

    yield from rec(idx.full, sum(idx.pop), kappa, ())


def connected_submasks_whole_rest_reference(idx: _MaskIndex, seed: int, allowed: int, pop_cap: int):
    """``grid._connected_submasks(..., whole_rest=True)`` with the connectivity
    cut alone: a subtree goes only when its fixed cells, those no submask
    below can take, span two components of the complement."""
    flood = idx.flood
    comp = flood(1 << seed, allowed)
    if comp != allowed:
        pop = idx.votes(comp).population()
        if pop <= pop_cap:
            yield comp, pop
        return
    stack = []
    mask = pop = banned = 0
    cand = remaining = 1 << seed
    while True:
        if not remaining:
            if not stack:
                return
            mask, pop, cand, banned, remaining = stack.pop()
            continue
        bit = remaining & -remaining
        remaining ^= bit
        i = bit.bit_length() - 1
        new_pop = pop + idx.pop[i]
        if new_pop > pop_cap:
            continue
        child_banned = banned | (cand ^ remaining ^ bit)
        new_mask = mask | bit
        free = allowed & ~(new_mask | child_banned)
        child_cand = remaining | idx.adj[i] & free
        if new_pop < pop_cap:
            rest = allowed & ~new_mask
            comp = flood(rest & -rest, rest)
            if comp != rest:
                fixed = rest & ~flood(child_cand, free)
                if fixed & ~comp and (fixed & comp or fixed & ~flood(fixed & -fixed, rest)):
                    continue
        yield new_mask, new_pop
        stack.append((mask, pop, cand, banned, remaining))
        mask, pop, cand, banned, remaining = new_mask, new_pop, child_cand, child_banned, child_cand


def column_table_reference(p: GridPolygon, column: int, kappa: int, target: int) -> list[tuple]:
    """Every whole cut of the column's run into at most kappa segments, by
    ascending segment count and then lexicographic cut rows; each cut is a
    tuple of ``(interval, party_a, party_b)``.  Cuts with a segment above the
    target are left out."""
    rows = sorted(r for r, c in p.votes if c == column)
    lo, hi = rows[0], rows[-1]
    table = []
    for parts in range(1, min(kappa, hi - lo + 1) + 1):
        for cuts in itertools.combinations(range(lo + 1, hi + 1), parts - 1):
            bounds = (lo,) + cuts + (hi + 1,)
            cut = []
            for top, end in zip(bounds, bounds[1:]):
                votes = sum((p.votes[(r, column)] for r in range(top, end)), ZERO_VOTES)
                if votes.population() > target:
                    break
                cut.append(((top, end - 1), votes.party_a, votes.party_b))
            else:
                table.append(tuple(cut))
    return table


def cut_segments(cut: tuple) -> tuple:
    """A y-convex solver cut, ``((label index, segment), ...)``, as the
    ``((label, interval), ...)`` segments of ``transition_feasible``."""
    return tuple((idx + 1, seg[0]) for idx, seg in cut)


def successors_reference(key: tuple, table: list[tuple], kappa: int, target: int) -> list[tuple]:
    """The column DP's step tried cut by cut: each segment of each cut goes to
    any overlapping active label with room, in index order, or to the next
    unused label; an active label left out must hold the target."""
    active = [(idx, st[3], st[0] + st[1]) for idx, st in enumerate(key) if st[2] == ACTIVE]
    must_continue = {idx for idx, _, pop in active if pop != target}
    used = sum(1 for st in key if st[2] != UNSTARTED)
    base = tuple((st[0], st[1], FINISHED, None) if st[2] == ACTIVE else st for st in key)
    out = []

    def assign(cut, i, taken, next_new, chosen):
        if i == len(cut):
            if must_continue - taken:
                return
            new = list(base)
            for idx, (interval, a, b) in zip(chosen, cut):
                new[idx] = (key[idx][0] + a, key[idx][1] + b, ACTIVE, interval)
            out.append((tuple(new), tuple((idx + 1, seg[0]) for idx, seg in zip(chosen, cut))))
            return
        (top, bottom), a, b = cut[i]
        for idx, interval, pop in active:
            if idx not in taken and interval[0] <= bottom and top <= interval[1] and pop + a + b <= target:
                assign(cut, i + 1, taken | {idx}, next_new, chosen + [idx])
        if next_new < kappa:
            assign(cut, i + 1, taken, next_new + 1, chosen + [next_new])

    for cut in table:
        assign(cut, 0, frozenset(), used, [])
    return out
