"""Property tests of the exact solvers and the local search, on examples
drawn by hypothesis.

The draws are derandomized and no example database is kept, so every run
tries the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from effgap.core import VoteCounts, total_effgap  # noqa: E402
from effgap.county import ingest, validate_plan  # noqa: E402
from effgap.grid import GridPolygon, _connected_submasks, _MaskIndex, brute_force_opt  # noqa: E402
from effgap.localsearch import ReplicaState, SearchConfig, run, run_iteration  # noqa: E402
from effgap.yconvex import is_yconvex_partition, solve_yconvex  # noqa: E402
from conftest import enumerate_equipartitions, partition_vote_totals, random_county_csv  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def cell_votes(draw):
    """A node's votes: 0..2 voters, so some nodes are empty."""
    pop = draw(st.integers(0, 2))
    a = draw(st.integers(0, pop))
    return VoteCounts(a, pop - a)


@st.composite
def column_polygons(draw, max_cells=12):
    """A polygon of at most max_cells cells whose every column is one run
    that overlaps the run before, so it is connected and hole-free."""
    top = draw(st.integers(0, 2))
    runs = [(top, top + draw(st.integers(0, 3)))]
    size = runs[0][1] - top + 1
    while size < 4 or draw(st.booleans()):
        prev_top, prev_bottom = runs[-1]
        top = draw(st.integers(max(0, prev_top - 2), prev_bottom))
        bottom = draw(st.integers(max(top, prev_top), top + 3))
        if size + bottom - top + 1 > max_cells:
            break
        runs.append((top, bottom))
        size += bottom - top + 1
    votes = {(r, c): draw(cell_votes()) for c, (top, bottom) in enumerate(runs) for r in range(top, bottom + 1)}
    return GridPolygon(1 + max(bottom for _, bottom in runs), len(runs), votes)


@settings(DETERMINISTIC, max_examples=120)
@given(column_polygons(), st.data())
def test_yconvex_is_the_oracle_over_yconvex_partitions(p, data):
    kappa = data.draw(st.integers(2, min(4, p.size)))
    # Pad one cell so that kappa divides the total and the window is not empty.
    votes = dict(p.votes)
    cell = data.draw(st.sampled_from(sorted(votes)))
    votes[cell] += VoteCounts(0, -p.total_votes().population() % kappa)
    p = GridPolygon(p.rows, p.cols, votes)
    values = [total_effgap(partition_vote_totals(p, q, kappa)).total_scaled_abs
              for q in enumerate_equipartitions(p, kappa) if is_yconvex_partition(q)]
    res = solve_yconvex(p, kappa)
    assert (res.value is not None) == bool(values)
    assert res.value == (min(values) if values else None)


@st.composite
def rectangles(draw):
    """A 3x3 or 3x4 rectangle with 0-2 voters of each party per cell and an
    even population; some of its equipartitions are not y-convex."""
    cols = draw(st.integers(3, 4))
    votes = {(r, c): VoteCounts(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
             for r in range(3) for c in range(cols)}
    votes[0, 0] += VoteCounts(0, sum(v.population() for v in votes.values()) % 2)
    return GridPolygon(3, cols, votes)


@settings(DETERMINISTIC, max_examples=150)
@given(rectangles())
def test_yconvex_is_the_oracle_over_yconvex_partitions_of_rectangles(p):
    values = [total_effgap(partition_vote_totals(p, q, 2)).total_scaled_abs
              for q in enumerate_equipartitions(p, 2) if is_yconvex_partition(q)]
    assert solve_yconvex(p, 2).value == (min(values) if values else None)


@st.composite
def graphs(draw):
    """Votes and adjacency lists of 2..12 nodes: a random tree plus random edges."""
    n = draw(st.integers(2, 12))
    adj = [set() for _ in range(n)]
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    return [draw(cell_votes()) for _ in range(n)], [sorted(nbs) for nbs in adj]


@settings(DETERMINISTIC, max_examples=200)
@given(graphs(), st.data())
def test_pruned_walk_keeps_exactly_the_valid_submasks(graph, data):
    """On a county-style index; some nodes may be left out of what is
    allowed, which may split it."""
    votes, adj = graph
    nodes = range(len(votes))
    idx = _MaskIndex(nodes, [v.party_a for v in votes], [v.population() for v in votes], adj)
    left_out = data.draw(st.sets(st.sampled_from(nodes), max_size=min(3, len(nodes) - 1)))
    allowed = sum(1 << i for i in nodes if i not in left_out)
    seed = data.draw(st.sampled_from([i for i in nodes if i not in left_out]))
    cap = data.draw(st.integers(0, idx.votes(allowed).population()))

    def valid(walk):
        return [m for m, _ in walk if m != allowed and idx.connected(allowed & ~m)]

    full_walk = list(_connected_submasks(idx, seed, allowed, cap))
    pruned = list(_connected_submasks(idx, seed, allowed, cap, whole_rest=True))
    assert valid(pruned) == valid(full_walk)
    assert set(pruned) <= set(full_walk)


@settings(DETERMINISTIC, max_examples=200)
@given(st.integers(0, 2**16), st.integers(8, 24), st.integers(2, 4), st.data())
def test_local_search_keeps_its_invariants(graph_seed, nodes, kappa, data):
    """Every move strictly lowers the gap and leaves a valid plan, each
    trace ends at its last move's gap and plan, and a replica that stopped
    early can move no node at all from its final plan."""
    res = ingest(random_county_csv(graph_seed, nodes, kappa))
    graph = res.graph
    cfg = SearchConfig(mu=data.draw(st.integers(1, 30)), k=data.draw(st.integers(1, nodes - 1)),
                       seed=data.draw(st.integers(0, 1000)), replicas=2)
    for trace in run(graph, res.plan, cfg).traces:
        replay = list(res.plan)
        last = trace.initial_scaled
        for mv in trace.moves:
            assert mv.before_scaled == last and mv.after_scaled < mv.before_scaled
            replay[graph.index[mv.node]] = mv.to_district
            assert validate_plan(graph, replay).ok
            last = mv.after_scaled
        assert last == trace.final_scaled and replay == trace.final_plan
        if trace.stopped_at is not None:
            state = ReplicaState(graph, trace.final_plan)
            assert run_iteration(state, lambda k, n: range(n), cfg.mu, cfg.k) == []


# Metamorphic relations of the exact solvers: each compares two solves, so
# none needs the oracle's answer to be right.


def _padded(p, data, kappa, odd=False):
    """p with party-B votes added to one drawn cell so that kappa divides its
    population, and with ``odd`` so that the district population is odd."""
    pop = p.total_votes().population()
    pad = (kappa - pop) % (2 * kappa) if odd else -pop % kappa
    cell = data.draw(st.sampled_from(sorted(p.votes)))
    return GridPolygon(p.rows, p.cols, {**p.votes, cell: p.votes[cell] + VoteCounts(0, pad)})


def _revoted(p, votes):
    """p with ``votes(v)`` in place of each cell's votes v."""
    return GridPolygon(p.rows, p.cols, {cell: votes(v) for cell, v in p.votes.items()})


def _moved(p, rows, cols, place):
    """A rows x cols polygon with each cell's votes at ``place(cell)``."""
    return GridPolygon(rows, cols, {place(cell): v for cell, v in p.votes.items()})


def _solves(p, kappa):
    return brute_force_opt(p, kappa), solve_yconvex(p, kappa)


@settings(DETERMINISTIC, max_examples=100)
@given(column_polygons(), st.integers(2, 7), st.data())
def test_scaling_the_votes_scales_the_exact_values(p, c, data):
    """Brute keeps the same optima in the same order, and the y-convex DP
    the same witness."""
    kappa = data.draw(st.integers(2, 3))
    p = _padded(p, data, kappa)
    brute, dp = _solves(p, kappa)
    scaled = _revoted(p, lambda v: VoteCounts(c * v.party_a, c * v.party_b))
    scaled_brute, scaled_dp = _solves(scaled, kappa)
    assert scaled_brute.value == (None if brute.value is None else c * brute.value)
    assert scaled_brute.optima == brute.optima
    assert scaled_dp.value == (None if dp.value is None else c * dp.value)
    assert scaled_dp.partition == dp.partition


@settings(DETERMINISTIC, max_examples=100)
@given(column_polygons(), st.data())
def test_mirroring_keeps_the_exact_values(p, data):
    kappa = data.draw(st.integers(2, 3))
    p = _padded(p, data, kappa)
    brute, dp = _solves(p, kappa)
    mirrors = (lambda cell: (p.rows - 1 - cell[0], cell[1]),  # the rows
               lambda cell: (cell[0], p.cols - 1 - cell[1]))  # the columns
    for place in mirrors:
        mirror_brute, mirror_dp = _solves(_moved(p, p.rows, p.cols, place), kappa)
        assert (mirror_brute.value, mirror_dp.value) == (brute.value, dp.value)


@settings(DETERMINISTIC, max_examples=100)
@given(rectangles())
def test_transposing_keeps_the_oracle_value(p):
    """A transposed y-convex partition need not be y-convex, so only brute is checked."""
    transposed = _moved(p, p.cols, p.rows, lambda cell: cell[::-1])
    assert brute_force_opt(transposed, 2).value == brute_force_opt(p, 2).value


@settings(DETERMINISTIC, max_examples=100)
@given(column_polygons(), st.data())
def test_swapping_the_parties_keeps_the_exact_values(p, data):
    """With an odd district population no district ties, and a tie is the
    one outcome the swap does not mirror: it goes to A either way."""
    kappa = data.draw(st.integers(2, 3))
    p = _padded(p, data, kappa, odd=True)
    brute, dp = _solves(p, kappa)
    swapped_brute, swapped_dp = _solves(_revoted(p, lambda v: VoteCounts(v.party_b, v.party_a)), kappa)
    assert (swapped_brute.value, swapped_dp.value) == (brute.value, dp.value)
