import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from effgap import grid
from effgap.core import VoteCounts, total_effgap
from effgap.county import ingest
from effgap.grid import (
    GridPartition,
    GridPolygon,
    OracleLimitError,
    brute_force_opt,
    gen_hardness_instance,
    population_window,
    read_instance,
    subset_sum_oracle,
    validate_partition,
    validate_polygon,
    write_instance,
    write_partition,
    _connected_submasks,
    _enumerate_mask_partitions,
    _MaskIndex,
    _masks_to_partition,
    _optimum,
)
from effgap.yconvex import solve_yconvex
from conftest import (
    cells_connected,
    connected_submasks_whole_rest_reference,
    county_index,
    enumerate_equipartitions,
    enumerate_mask_partitions_reference,
    neighbors4,
    partition_county_csv,
    partition_vote_totals,
    polygon,
    random_county_csv,
    random_polygon,
    read_partition,
    uniform_rect,
    validate_polygon_reference,
)


# --- polygon validation -----------------------------------------------------


def test_fifteen_cell_polygon_on_6x4_grid_ok():
    # An L-shaped 15-cell polygon placed on a 6x4 grid.
    cells = [(r, c) for r in range(6) for c in range(2)] + [(5, 2), (5, 3), (4, 2)]
    p = polygon({cell: (0, 0) for cell in cells}, rows=6, cols=4)
    assert p.size == 15
    assert validate_polygon(p).ok


def test_diagonal_cells_disconnected():
    p = polygon({(0, 0): (1, 0), (1, 1): (0, 1)})
    report = validate_polygon(p)
    assert not report.ok and report.reason == "disconnected"


def test_ring_has_hole():
    ring = {(r, c) for r in range(3) for c in range(3)} - {(1, 1)}
    p = polygon({cell: (0, 0) for cell in ring})
    report = validate_polygon(p)
    assert not report.ok and report.reason == "hole" and report.witness == (1, 1)


def test_validate_polygon_matches_set_based_reference():
    # Random cell sets in boxes up to 6x6, placed away from (0, 0) on a grid
    # with spare rows and columns; sparse sets tend to be disconnected and
    # dense ones to have holes.
    rng = random.Random(11)
    seen = {}
    for _ in range(3000):
        h, w = rng.randint(1, 6), rng.randint(1, 6)
        top, left = rng.randint(0, 2), rng.randint(0, 2)
        density = rng.choice([0.3, 0.6, 0.85, 0.95])
        cells = [(top + r, left + c) for r in range(h) for c in range(w) if rng.random() < density]
        rows, cols = top + h + rng.randint(0, 2), left + w + rng.randint(0, 2)
        p = GridPolygon(rows, cols, {cell: VoteCounts(0, 0) for cell in cells})
        got = validate_polygon(p)
        assert (got.ok, got.reason, got.witness) == validate_polygon_reference(p), sorted(cells)
        offset = bool(cells) and min(r for r, _ in cells) > 0 and min(c for _, c in cells) > 0
        seen[got.reason, offset] = seen.get((got.reason, offset), 0) + 1
    for reason in (None, "disconnected", "hole"):
        assert seen.get((reason, True), 0) >= 20, seen
    assert seen.get(("empty", False), 0) >= 1


# --- partition validation ---------------------------------------------------


def square2x2(pops=((1, 1), (1, 1))):
    return polygon({
        (0, 0): (0, pops[0][0]), (0, 1): (0, pops[0][1]),
        (1, 0): (0, pops[1][0]), (1, 1): (0, pops[1][1]),
    })


def test_column_split_valid():
    p = square2x2()
    q = GridPartition({(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2})
    assert validate_partition(p, q, 2).ok


def test_diagonal_labels_disconnected():
    p = square2x2()
    q = GridPartition({(0, 0): 1, (1, 1): 1, (0, 1): 2, (1, 0): 2})
    report = validate_partition(p, q, 2)
    assert not report.ok and "disconnected" in report.reason


def test_population_mode_split_direction_matters():
    # Pops placed so rows balance (3+1 vs 3+1) but columns do not (6 vs 2).
    p = polygon({(0, 0): (0, 3), (0, 1): (0, 1), (1, 0): (0, 3), (1, 1): (0, 1)})
    rows = GridPartition({(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    cols = GridPartition({(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2})
    assert validate_partition(p, rows, 2).ok
    report = validate_partition(p, cols, 2)
    assert not report.ok and "population" in report.reason


def test_kappa_range_enforced():
    p = square2x2()
    q = GridPartition({cell: 1 for cell in p.votes})
    assert validate_partition(p, q, 1).ok
    with pytest.raises(ValueError):
        validate_partition(p, q, 0)
    with pytest.raises(ValueError):
        validate_partition(p, q, 5)


@pytest.mark.parametrize("labels, kappa, reason, witness", [
    ({(0, 0): 1, (0, 1): 1, (1, 0): 2}, 2, "cell not labelled", (1, 1)),
    ({(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 2}, 2,
     "label for cell outside polygon", (2, 0)),
    ({(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 2, "label 3 outside 1..2", (1, 1)),
    ({(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}, 2, "label 1 empty", None),
], ids=["unlabelled", "outside", "label range", "empty label"])
def test_partition_rejections_name_reason_and_cell(labels, kappa, reason, witness):
    report = validate_partition(square2x2(), GridPartition(labels), kappa)
    assert (report.ok, report.reason, report.witness) == (False, reason, witness)


@pytest.mark.parametrize("rows, cols, votes, message", [
    (0, 2, {}, "grid dimensions must be positive"),
    (2, -1, {}, "grid dimensions must be positive"),
    (2, 2, {(2, 0): VoteCounts(1, 1)}, r"cell \(2, 0\) outside the 2x2 grid"),
    (2, 2, {(0, -1): VoteCounts(1, 1)}, r"cell \(0, -1\) outside the 2x2 grid"),
])
def test_polygon_constructor_rejects_bad_shapes(rows, cols, votes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridPolygon(rows, cols, votes)


def test_near_mode_window():
    p = polygon({(0, 0): (0, 3), (0, 1): (0, 1), (1, 0): (0, 3), (1, 1): (0, 1)})
    rows = GridPartition({(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    assert validate_partition(p, rows, 2).ok  # 4 vs 4 exactly
    cols = GridPartition({(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2})
    assert not validate_partition(p, cols, 2).ok  # 6 vs 2
    assert validate_partition(p, cols, 2, population_window(8, 2, Fraction(1, 4))).ok


def test_population_window_matches_inline_formula():
    rng = random.Random(5)
    empty = 0
    for _ in range(400):
        total, kappa = rng.randint(0, 200), rng.randint(1, 6)
        lo, hi = population_window(total, kappa)
        if total % kappa:
            assert (lo, hi) == (1, 0)
            empty += 1
        else:
            assert lo == hi == Fraction(total, kappa)
        delta = Fraction(rng.randint(0, 12), rng.randint(1, 24))
        lo_frac = (Fraction(1, kappa) - delta) * total
        hi_frac = (Fraction(1, kappa) + delta) * total
        lo = max(0, -(-lo_frac.numerator // lo_frac.denominator))
        hi = min(total, hi_frac.numerator // hi_frac.denominator)
        assert population_window(total, kappa, delta) == (lo, hi)
    assert empty >= 50
    with pytest.raises(ValueError, match="non-negative"):
        population_window(10, 2, Fraction(-1, 4))
    for kappa, delta in ((0, None), (-2, None), (0, Fraction(1, 4)), (-2, Fraction(1, 4))):
        with pytest.raises(ValueError, match=f"kappa must be at least 1, got {kappa}"):
            population_window(10, kappa, delta)


@pytest.mark.parametrize("kappa", [0, -2])
@pytest.mark.parametrize("window", [None, (0, 4)])
def test_solvers_reject_kappa_below_one_with_one_message(kappa, window):
    """The oracle and the DP both take population_window's rule."""
    p = uniform_rect(2, 2)
    message = f"^kappa must be at least 1, got {kappa}$"
    with pytest.raises(ValueError, match=message):
        brute_force_opt(p, kappa, window)
    if window is None:
        with pytest.raises(ValueError, match=message):
            solve_yconvex(p, kappa)


# --- the oracle -------------------------------------------------------------


def column_runs(rows, runs, seed=0, cell_pop=2):
    """Polygon with one (top, bottom) row run per column; every cell holds
    `cell_pop` voters split at random."""
    rng = random.Random(seed)
    votes = {}
    for c, (top, bottom) in enumerate(runs):
        for r in range(top, bottom + 1):
            a = rng.randint(0, cell_pop)
            votes[(r, c)] = VoteCounts(a, cell_pop - a)
    return GridPolygon(rows, len(runs), votes)


def test_connected_submask_enumeration_matches_powerset():
    p = uniform_rect(3, 3)
    idx = _MaskIndex.of_polygon(p)
    seed = 0
    allowed = (1 << 9) - 1
    mine = {mask for mask, _ in _connected_submasks(idx, seed, allowed, 10**9)}
    cells = list(idx.index)
    naive = set()
    for size in range(1, 10):
        for combo in combinations(range(9), size):
            if 0 not in combo:
                continue
            if cells_connected({cells[i] for i in combo}):
                naive.add(sum(1 << i for i in combo))
    assert mine == naive

    # A diamond puts row ends next to the starts of the following rows in
    # bit order.
    p = column_runs(4, ((1, 2), (0, 3), (0, 3), (1, 2)))
    idx = _MaskIndex.of_polygon(p)
    seed_cell = min(p.votes)
    walk = [mask for mask, _ in _connected_submasks(idx, idx.index[seed_cell], idx.full, 10**9)]
    assert len(walk) == len(set(walk))
    others = sorted(set(p.votes) - {seed_cell})
    naive = set()
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            if cells_connected({seed_cell, *combo}):
                naive.add(sum(1 << idx.index[cell] for cell in (seed_cell, *combo)))
    assert set(walk) == naive


def test_mask_connectivity_matches_cell_search():
    # Rows of width 4: the last cell of one row and the first of the next
    # are neighbours in bit order but not on the grid.
    cells = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
             (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
    p = polygon({cell: (0, 1) for cell in cells}, rows=4, cols=4)
    assert validate_polygon(p).ok
    idx = _MaskIndex.of_polygon(p)
    assert idx.cell_at == cells  # bit i is the i-th cell in sorted order
    assert idx.index[(1, 0)] == 3 and idx.index[(0, 3)] == 2
    bit = {cell: 1 << idx.index[cell] for cell in cells}
    for wrap in (((0, 3), (1, 0)), ((1, 3), (2, 0))):
        assert not idx.connected(bit[wrap[0]] | bit[wrap[1]])
    for size in range(len(cells) + 1):
        for combo in combinations(cells, size):
            mask = sum(bit[cell] for cell in combo)
            assert idx.connected(mask) == cells_connected(combo), combo


def _naive_partitions(p, kappa, lo, hi):
    """The oracle's partitions, found by filtering the unpruned submask walk
    with cell-set checks."""
    idx = _MaskIndex.of_polygon(p)

    def cells_of(mask):
        return {cell for cell, i in idx.index.items() if mask >> i & 1}

    def pop_of(mask):
        return sum(p.votes[cell].population() for cell in cells_of(mask))

    def rec(remaining, parts_left, acc):
        if parts_left == 1:
            if lo <= pop_of(remaining) <= hi and cells_connected(cells_of(remaining)):
                yield acc + (remaining,)
            return
        if not remaining:
            return
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in _connected_submasks(idx, seed, remaining, hi):
            if pop >= lo:
                yield from rec(remaining & ~sub, parts_left - 1, acc + (sub,))

    if p.size >= kappa:
        yield from rec(idx.full, kappa, ())


def _valid_splits(idx, allowed, walk):
    """The submasks of a walk that leave a non-empty connected complement."""
    return [m for m, _ in walk if m != allowed and idx.connected(allowed & ~m)]


def _grid_graph_index(rng, p, extra):
    """A county-style index of a polygon's cells: bits numbered densely in
    cell order, 4-neighbour edges and `extra` random edges."""
    cells = sorted(p.votes)
    number = {cell: i for i, cell in enumerate(cells)}
    adj = [{number[nb] for nb in neighbors4(cell) if nb in number} for cell in cells]
    for _ in range(extra):
        i, j = rng.sample(range(len(cells)), 2)
        adj[i].add(j)
        adj[j].add(i)
    votes = [p.votes[cell] for cell in cells]
    return _MaskIndex(cells, [v.party_a for v in votes], [v.population() for v in votes], adj)


def test_pruned_walk_keeps_every_valid_submask_in_order():
    """Polygons, county-style indexes of grids with random extra edges (both
    with zero-population nodes) and county graphs; some with nodes left out
    of what is allowed; caps drawn from a third of the total up, and the
    exact window's cap at kappa 2..4."""
    rng = random.Random(41)
    indexes = []
    for _ in range(30):
        p = random_polygon(rng, rng.randint(6, 12), max_pop=3)
        indexes += [p.mask_index, _grid_graph_index(rng, p, rng.randint(1, 4))]
    indexes += [county_index(ingest(random_county_csv(300 + s, 8 + s, 2)).graph) for s in range(4)]
    kept = cut = 0
    for trial, idx in enumerate(indexes):
        total = sum(idx.pop)
        allowed = idx.full
        if trial % 3 == 2:
            # Leave out a few nodes, which may split what is allowed.
            for i in rng.sample([i for i in range(len(idx.pop)) if allowed >> i & 1], 3):
                allowed &= ~(1 << i)
        seed = (allowed & -allowed).bit_length() - 1
        for cap in sorted({rng.randint(total // 3, total)} | {total // kappa for kappa in (2, 3, 4)}):
            full_walk = list(_connected_submasks(idx, seed, allowed, cap))
            pruned = list(_connected_submasks(idx, seed, allowed, cap, whole_rest=True))
            valid = _valid_splits(idx, allowed, full_walk)
            assert _valid_splits(idx, allowed, pruned) == valid
            assert set(pruned) <= set(full_walk)
            kept += len(valid)
            cut += len(full_walk) - len(pruned)
    assert kept > 1000 and cut > 1000, (kept, cut)


def test_pruned_walk_cuts_what_the_complement_cannot_lose(monkeypatch):
    """On the 4x6 kappa 3 and 5x5 kappa 5 pins, each two-class remainder's
    walk keeps the valid splits of the walk with the connectivity cut alone
    and, cutting subtrees that would have to take in too much of a cut-off
    complement, yields fewer submasks in all."""
    walks = []
    walk = grid._connected_submasks

    def recording(idx, seed, allowed, pop_cap, whole_rest=False):
        if whole_rest:
            walks.append((idx, seed, allowed, pop_cap))
        return walk(idx, seed, allowed, pop_cap, whole_rest)

    monkeypatch.setattr(grid, "_connected_submasks", recording)
    for name in ("rect4x6-k3", "rect5x5-k5"):
        p, kappa, _ = pin_instance(name)
        walks.clear()
        brute_force_opt(p, kappa, cell_limit=32)
        pruned = connectivity_only = 0
        for idx, seed, allowed, cap in walks:
            new = list(walk(idx, seed, allowed, cap, True))
            old = list(connected_submasks_whole_rest_reference(idx, seed, allowed, cap))
            assert _valid_splits(idx, allowed, new) == _valid_splits(idx, allowed, old)
            pruned += len(new)
            connectivity_only += len(old)
        assert pruned < connectivity_only, (name, pruned, connectivity_only)


def test_enumeration_matches_naive_filter():
    rng = random.Random(43)
    checked = 0
    for trial in range(40):
        p = random_polygon(rng, rng.randint(5, 11), max_pop=3)
        kappa = rng.choice([2, 2, 3, 4])
        total = p.total_votes().population()
        if trial % 2:
            lo, hi = population_window(total, kappa, Fraction(1, 5))
        else:
            lo, hi = max(0, total // kappa - 1), total // kappa + 2
        expected = list(_naive_partitions(p, kappa, lo, hi))
        assert list(_enumerate_mask_partitions(_MaskIndex.of_polygon(p), kappa, lo, hi)) == expected
        checked += len(expected)
    assert checked > 100


def test_enumeration_order_matches_reference():
    """The enumeration with its two-class split memo yields the reference's
    partitions in the reference's order: polygons with zero-population
    cells, county graphs and hardness gadgets with decoys, kappa 1..5, in
    the exact, near and an explicit window."""
    rng = random.Random(61)
    indexes = [random_polygon(rng, rng.randint(6, 12), max_pop=3).mask_index for _ in range(24)]
    indexes += [county_index(ingest(random_county_csv(200 + s, 9 + s, 2 + s % 3)).graph) for s in range(6)]
    for values, decoys in (([4, 8, 12], 0), ([4, 4, 8], 1), ([8, 4], 2), ([4, 8, 4], 2)):
        indexes.append(gen_hardness_instance(values, decoys, seed=decoys).polygon.mask_index)
    checked = 0
    for idx in indexes:
        total = sum(idx.pop)
        for kappa in range(1, 6):
            windows = (
                population_window(total, kappa),
                population_window(total, kappa, Fraction(1, 6)),
                (max(0, total // kappa - 2), total // kappa + 1),
            )
            for lo, hi in windows:
                got = list(_enumerate_mask_partitions(idx, kappa, lo, hi))
                assert got == list(enumerate_mask_partitions_reference(idx, kappa, lo, hi)), (kappa, lo, hi)
                checked += len(got)
    assert checked > 10000, checked


def test_two_class_remainders_are_walked_once(monkeypatch):
    """On 5x5 at kappa 5 the reference walks many two-class remainders more
    than once; the oracle walks each distinct one once."""
    walked = []
    walk = grid._connected_submasks

    def counting(idx, seed, allowed, pop_cap, whole_rest=False):
        if whole_rest:
            walked.append(allowed)
        return walk(idx, seed, allowed, pop_cap, whole_rest)

    monkeypatch.setattr(grid, "_connected_submasks", counting)
    idx = uniform_rect(5, 5).mask_index
    want = list(enumerate_mask_partitions_reference(idx, 5, 5, 5))
    reference_walks, walked[:] = list(walked), []
    assert list(_enumerate_mask_partitions(idx, 5, 5, 5)) == want
    assert sorted(walked) == sorted(set(reference_walks))
    assert len(walked) < len(reference_walks), (len(walked), len(reference_walks))


def _classes(labels, cell_of=None):
    """A partition's classes as a set of cell sets; `cell_of` maps node keys to cells."""
    classes = {}
    for key, lab in labels.items():
        classes.setdefault(lab, set()).add(cell_of[key] if cell_of else key)
    return frozenset(map(frozenset, classes.values()))


def test_oracle_on_a_polygon_as_a_county_index():
    """A polygon written as a one-district county CSV and ingested gives, on
    the county graph's own index, the oracle's value and the same optima,
    mapped back to cells: shapes with empty bounding-box cells and a
    hardness gadget with a decoy, in exact and near windows."""
    shapes = [
        (column_runs(3, [(0, 2)] * 4, seed=1), (2, 3, 4)),
        (column_runs(2, [(0, 1)] * 6, seed=2), (2, 3)),
        (column_runs(4, [(0, 3)] * 3, seed=3), (2, 4)),
        (column_runs(4, ((1, 2), (0, 3), (0, 3), (1, 2)), seed=4), (2, 3, 4)),
        (gen_hardness_instance([4, 8], decoy_count=1, seed=1).polygon, (3,)),
    ]
    optima = 0
    for p, kappas in shapes:
        graph = ingest(partition_county_csv(p, GridPartition(dict.fromkeys(p.votes, 1)))).graph
        idx = county_index(graph)
        cell_of = {key: tuple(map(int, key[1][1:].split("c"))) for key in graph.nodes}
        total = p.total_votes().population()
        for kappa in kappas:
            for window in (population_window(total, kappa), population_window(total, kappa, Fraction(1, 8))):
                res = brute_force_opt(p, kappa, window)
                value, argmin = _optimum(idx, kappa, *window)
                assert value == res.value, (kappa, window)
                assert len(argmin) == len(res.optima)
                county = {_classes(_masks_to_partition(idx, m).labels, cell_of) for m in argmin}
                assert county == {_classes(q.labels) for q in res.partitions}
                optima += len(argmin)
    assert optima >= 20, optima


def test_oracle_2x2_top_vs_bottom():
    p = polygon({(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (0, 1)})
    res = brute_force_opt(p, 2)
    assert res.value == 0
    # The row split is the unique optimum; column splits give two ties.
    assert len(res.partitions) == 1
    assert res.partitions[0].labels[(0, 0)] == res.partitions[0].labels[(0, 1)]


def test_oracle_one_party_matches_attainable_minimum():
    from effgap.core import attainable_values

    p = uniform_rect(2, 3, pop=2, a_cells=[(r, c) for r in range(2) for c in range(3)])
    res = brute_force_opt(p, 2)
    total = p.total_votes()
    vals = attainable_values(total.party_a, total.population(), 2)
    assert Fraction(res.value, 2) == vals[0].value


def test_oracle_infeasible_split():
    p = polygon({(0, 0): (0, 1), (0, 1): (0, 2)})
    res = brute_force_opt(p, 2)
    assert res.value is None and res.optima == () and res.partitions == ()


def test_oracle_size_limit():
    p = uniform_rect(4, 4)
    with pytest.raises(OracleLimitError, match="too large"):
        brute_force_opt(p, 2, cell_limit=15)


def test_oracle_reports_all_argmins():
    p = uniform_rect(2, 2)  # all pop 1, every 2-equipartition ties at the same value
    res = brute_force_opt(p, 2)
    assert res.value is not None
    assert len(res.partitions) == 2  # row split and column split
    values = set()
    for q in res.partitions:
        assert validate_partition(p, q, 2).ok
        stats = total_effgap(partition_vote_totals(p, q, 2))
        values.add(stats.total_scaled_abs)
    assert values == {res.value}


# sha256 of (value, every optimum's labels), recorded before the oracle's
# walk moved to grid-layout bits and learnt to prune: the optima, and the
# order in which they are found, must not change.
ORACLE_PINS = {
    "hex26-k2": "b47876eed288e91f5734ebc18d250811d1d7a58f25617ad916de6de08c1d6e04",
    "barrel26-k2": "e5aebf76c1b99986f43e0ee71bee45eecd1d279a570d3494edef1740d57063cb",
    "diamond7-k2": "f37b7922ccbbbd87ef3c9c27e573b0a8a5e0a8b73aea4befaccb2d31cfe54f5c",
    "rect4x6-k3": "84198611e64055fa8cd2aaa9e89b46f290ae1d641f02a7edc0adeddf74ac6c82",
    "rect5x5-k5": "9e17e8156cf28f47121f617f5f6d36b1ce1d56e1948b923c74fd099f81f2f771",
    "rect3x8-k4": "f002a4b4fea097d619166c2d2c6c0712d3b592fe314c91e312c10bfdf60f17c4",
    "gadget-yes-d1": "adae8c5546247b2d4cfe541fb8e2fa1a5ea2168db5c5982e0554f1fb3b8baf65",
    "gadget-no-d1": "f99462b9e9dbc6062089a727dd5c33232d07fc9d7eb669315b01ee994df4844b",
    "near-k3": "a1a396fe0e55c6a10f88f3c50b24fcd0c4391ec7dde7afedd5b7150e8c6e3683",
    "window-k3": "ac35b42ec76942224128072882b3124ac0a4f0d86a82670a07ea984d81663d60",
}


def pin_instance(name):
    """(polygon, kappa, oracle keyword arguments) of a pinned instance."""
    if name == "hex26-k2":
        return column_runs(5, ((1, 3), (0, 4), (0, 4), (0, 4), (0, 4), (1, 3)), 1), 2, {}
    if name == "barrel26-k2":
        return column_runs(6, ((1, 4), (0, 5), (0, 5), (0, 5), (1, 4)), 2), 2, {}
    if name == "diamond7-k2":
        runs = ((2, 3), (1, 4), (0, 5), (0, 5), (1, 4), (2, 3), (2, 3))
        return column_runs(6, runs, 3), 2, {}
    if name.startswith("rect"):
        m, n, kappa, seed = {"rect4x6-k3": (4, 6, 3, 4), "rect5x5-k5": (5, 5, 5, 5),
                             "rect3x8-k4": (3, 8, 4, 6)}[name]
        return column_runs(m, [(0, m - 1)] * n, seed), kappa, {}
    if name.startswith("gadget"):
        # Zero-population cells, one decoy; the yes instance has an equal split.
        values = (3, 5, 8, 2, 7, 9) if name == "gadget-yes-d1" else (3, 5, 8, 2, 7, 13)
        inst = gen_hardness_instance([4 * v for v in values], decoy_count=1,
                                     seed=0 if name == "gadget-yes-d1" else 1)
        return inst.polygon, inst.kappa, {}
    if name == "near-k3":
        p = random_polygon(random.Random(11), 13)
        return p, 3, {"window": population_window(p.total_votes().population(), 3, Fraction(1, 6))}
    # A slack of 3 people on a total of 31: the window total // 3 - 2 .. total // 3 + 3.
    p = random_polygon(random.Random(24), 14)
    total = p.total_votes().population()
    window = population_window(total, 3, Fraction(3, total))
    assert window == (total // 3 - 2, total // 3 + 3) == (8, 13)
    return p, 3, {"window": window}


@pytest.mark.parametrize("name", sorted(ORACLE_PINS))
def test_oracle_matches_pins(name):
    p, kappa, kwargs = pin_instance(name)
    res = brute_force_opt(p, kappa, cell_limit=32, **kwargs)
    assert res.value is not None and len(res.partitions) > 1
    key = (res.value, [sorted(q.labels.items()) for q in res.partitions])
    assert hashlib.sha256(repr(key).encode()).hexdigest() == ORACLE_PINS[name]


def test_enumerate_equipartitions_members_are_valid():
    rng = random.Random(7)
    for _ in range(20):
        p = random_polygon(rng, rng.randint(4, 8))
        kappa = rng.choice([2, 3])
        for q in enumerate_equipartitions(p, kappa):
            assert validate_partition(p, q, kappa).ok


# --- instance files ---------------------------------------------------------


def test_instance_round_trip():
    rng = random.Random(8)
    p = random_polygon(rng, 9)
    text = write_instance(p, 3)
    p2, kappa = read_instance(text)
    assert kappa == 3
    assert p2.votes == p.votes and (p2.rows, p2.cols) == (p.rows, p.cols)
    assert write_instance(p2, kappa) == text  # bit-exact


def test_partition_round_trip():
    q = GridPartition({(0, 0): 1, (0, 1): 2, (1, 0): 1})
    assert read_partition(write_partition(q)).labels == dict(q.labels)


def test_instance_rejects_garbage():
    with pytest.raises(ValueError, match="^empty instance file$"):
        read_instance("\n \n")


@pytest.mark.parametrize("text, message", [
    ("2 2\n", "line 1: header must be 'm n kappa'"),
    ("\n2 x 2\n0 0 1 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("0 2 2\n", "line 1: grid dimensions must be positive"),
    ("2 2 2\n0 0 1\n", "line 2: expected 4 fields 'row col a b', got 3"),
    ("2 2 2\n0 0 1 1\n\n\n0 1 1 1 5\n", "line 5: expected 4 fields 'row col a b', got 5"),
    ("2 2 2\n0 0 1 1\n\n0 1 1.5 1\n", "line 4: invalid literal for int() with base 10: '1.5'"),
    ("2 2 2\n0 0 1 1\n0 1 1 1\n\n0 0 2 2\n", "line 5: duplicate cell (0, 0)"),
    ("2 2 2\n\n0 0 1 1\n0 1 -1 1\n", "line 4: vote counts must be non-negative"),
    ("2 2 2\n0 0 1 1\n \n2 0 1 1\n", "line 4: cell (2, 0) outside the 2x2 grid"),
    ("2 2 2\n0 0 1 1\n0 -1 1 1\n", "line 3: cell (0, -1) outside the 2x2 grid"),
], ids=["header fields", "header integer", "dimensions", "short cell", "long cell",
        "cell integer", "duplicate", "negative votes", "outside below", "outside left"])
def test_instance_errors_name_their_line(text, message):
    """Blank lines count: N is the line's place in the file."""
    with pytest.raises(ValueError) as exc:
        read_instance(text)
    assert str(exc.value) == message


# --- hardness instances -----------------------------------------------------


def test_gadget_layout_matches_construction():
    values = [4 * v for v in (10, 30, 40, 50, 60, 80, 90)]
    inst = gen_hardness_instance(values)
    p = inst.polygon
    assert (p.rows, p.cols) == (3, 8)
    assert inst.kappa == 2 and inst.values_total == 1440
    assert p.votes[(0, 0)] == VoteCounts(720, 0)
    assert p.votes[(0, 2)] == VoteCounts(0, 720)
    for j, v in enumerate(values):
        assert p.votes[(1, j)] == VoteCounts(v // 2, v // 2)
    assert p.votes[(1, 7)].population() == 0
    assert all(p.votes[(2, c)].population() == 0 for c in range(8))
    assert validate_polygon(p).ok


def test_gadget_yes_instance_opt_zero():
    values = [4 * v for v in (10, 30, 40, 50, 60, 80, 90)]
    assert subset_sum_oracle(values)  # witness {40, 120, 200, 360}
    inst = gen_hardness_instance(values)
    res = brute_force_opt(inst.polygon, 2, cell_limit=24)
    assert res.value == 0


def test_gadget_no_instance_opt_delta():
    values = [8, 16, 32]
    assert not subset_sum_oracle(values)
    inst = gen_hardness_instance(values)
    res = brute_force_opt(inst.polygon, 2, cell_limit=12)
    assert res.value == 2 * inst.values_total  # scaled


def test_gadget_divisibility_error():
    with pytest.raises(ValueError, match="scale inputs by 4"):
        gen_hardness_instance([10, 30])


def test_gadget_needs_a_value():
    with pytest.raises(ValueError, match="^need at least one value$"):
        gen_hardness_instance([])


def test_gadget_decoys_deterministic_and_hole_free():
    a = gen_hardness_instance([8, 16], decoy_count=3, seed=5)
    b = gen_hardness_instance([8, 16], decoy_count=3, seed=5)
    assert a.polygon.votes == b.polygon.votes
    assert validate_polygon(a.polygon).ok
    assert a.kappa == 5 and len(a.decoy_cells) == 3
    for cell in a.decoy_cells:
        v = a.polygon.votes[cell]
        assert v.population() == a.values_total
        assert v.party_a == 3 * a.values_total // 4


def test_subset_sum_examples():
    assert subset_sum_oracle([10, 30, 40, 50, 60, 80, 90])
    # Exhaustive check over the 8 subsets of {2, 4, 8}.
    assert not any(
        sum(s) == 7 for size in range(4) for s in combinations([2, 4, 8], size)
    )
    assert not subset_sum_oracle([2, 4, 8])
    assert not subset_sum_oracle([])
    # An odd total has no half, though {7} sums to its floor.
    assert not subset_sum_oracle([3, 5, 7])
