import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from effgap.canonical import (
    CanonicalPlanError,
    PassCounts,
    _reconstruct_masks,
    build_decomposition,
    build_reach_table,
    solve_canonical,
    solve_case1,
    solve_two_near_stable,
)
from effgap.core import VoteCounts, district_effgap
from effgap.grid import GridPolygon, _MaskIndex, population_window, validate_partition
from conftest import cells_connected, polygon, uniform_rect


def case1(p, t, window, **kwargs):
    return solve_case1(build_decomposition(p, t), _MaskIndex.of_polygon(p), window, **kwargs)


def canonical(p, t, window, **kwargs):
    return solve_canonical(build_decomposition(p, t), _MaskIndex.of_polygon(p), window, **kwargs)


def reach_table(p, decomp):
    return build_reach_table(decomp, _MaskIndex.of_polygon(p))


def mask_cells(idx, mask):
    """The cells of a grid mask, in sorted order."""
    return [idx.cell_at[i] for i in range(mask.bit_length()) if mask >> i & 1]


def test_9x9_t3_nine_blocks_tree_connected():
    d = build_decomposition(uniform_rect(9, 9), 3)
    assert len(d.rects) == 9
    assert cells_connected(set(d.tree))
    # The spine touches every block.
    for rect in d.rects:
        assert any(cell in d.tree for cell in rect.cells())


def test_degenerate_single_block_is_ring_minus_one():
    d = build_decomposition(uniform_rect(4, 4), 4)
    assert len(d.rects) == 1
    ring = {(r, c) for r in range(4) for c in range(4) if r in (0, 3) or c in (0, 3)}
    assert set(d.tree) == ring - {(1, 3)}


def test_32x32_t10_matches_published_structure():
    d = build_decomposition(uniform_rect(32, 32), 10)
    assert len(d.rects) == 9
    assert cells_connected(set(d.tree))
    assert all(interior for interior in d.interiors)


def test_interiors_are_two_away_from_tree():
    d = build_decomposition(uniform_rect(10, 10), 5)
    for interior in d.interiors:
        for (r, c) in interior:
            for (tr, tc) in d.tree:
                assert max(abs(r - tr), abs(c - tc)) >= 2


def test_non_rectangle_rejected():
    p = polygon({(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (1, 0)})
    with pytest.raises(ValueError, match="rectangle"):
        build_decomposition(p, 3)
    with pytest.raises(ValueError, match="at least 3"):
        build_decomposition(uniform_rect(4, 4), 2)


def case1_reference(p, t, window):
    """Independent enumeration of all one-interior-subset plans."""
    d = build_decomposition(p, t)
    total = p.total_votes()
    lo, hi = window
    best = None
    for interior in d.interiors:
        cells = sorted(interior)
        for size in range(1, len(cells) + 1):
            for combo in combinations(cells, size):
                subset = set(combo)
                if not cells_connected(subset):
                    continue
                v1 = VoteCounts(
                    sum(p.votes[c].party_a for c in subset),
                    sum(p.votes[c].party_b for c in subset),
                )
                pop1 = v1.population()
                pop2 = total.population() - pop1
                if not (lo <= pop1 <= hi and lo <= pop2 <= hi):
                    continue
                if not cells_connected(set(p.votes) - subset):
                    continue
                v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
                value = abs(district_effgap(v1) + district_effgap(v2))
                if best is None or value < best:
                    best = value
    return best


def test_case1_window_excludes_everything():
    p = uniform_rect(6, 6, pop=2)
    assert case1(p, 5, (30, 40)) is None  # interior pop <= 8 < 30


def test_case1_matches_interior_subset_enumeration():
    # 6x6 with a 2x2 interior at t=5; A concentrated inside it.
    p = uniform_rect(6, 6, pop=4, a_cells=[(2, 2), (2, 3), (3, 2), (3, 3)])
    window = (4, 140)
    got = case1(p, 5, window)
    want = case1_reference(p, 5, window)
    assert got is not None and got.value == want
    q = got.partition
    wide = population_window(p.total_votes().population(), 2, Fraction(1, 2))
    assert validate_partition(p, q, 2, wide).ok


def test_case1_respects_connectivity():
    # Force a disconnected candidate: interior of 6x6 at t=5 is a 2x2
    # block, whose diagonal pairs are disconnected and must be skipped.
    p = uniform_rect(6, 6, pop=1, a_cells=[(2, 2), (3, 3)])
    window = (2, 34)
    got = case1(p, 5, window)
    ref = case1_reference(p, 5, window)
    assert got.value == ref
    side1 = {c for c, lab in got.partition.labels.items() if lab == 1}
    assert cells_connected(side1)


def test_reach_table_base_plan_is_tree():
    p = uniform_rect(6, 6, pop=2)
    d = build_decomposition(p, 3)  # interiors all empty at t=3
    assert all(not i for i in d.interiors)
    table = reach_table(p, d)
    assert not table.first_marked  # (0, 0) is the only marked pair
    pop = p.total_votes().population()
    plan = canonical(p, 3, (0, pop))
    side1 = {c for c, lab in plan.partition.labels.items() if lab == 1}
    assert side1 == set(d.tree)
    assert cells_connected(side1) and cells_connected(set(p.votes) - side1)


def test_reach_table_monotone_and_reconstructible():
    p = uniform_rect(10, 10, pop=2, a_cells=[(2, 2), (6, 6), (6, 7), (2, 6)])
    d = build_decomposition(p, 5)
    table = reach_table(p, d)
    # Every marked pair reconstructs to subsets with exactly those totals.
    from effgap.canonical import _reconstruct_masks

    for pair in table.first_marked:
        masks = _reconstruct_masks(table, pair, len(d.rects))
        a = b = 0
        for ri, mask in enumerate(masks):
            if mask:
                choice = next(c for c in table.choices[ri] if c.mask == mask)
                a += choice.votes.party_a
                b += choice.votes.party_b
        assert (a, b) == pair


def test_canonical_plan_valid_and_deterministic():
    p = uniform_rect(10, 10, pop=2, a_cells=[(2, 2), (6, 6), (7, 7), (2, 7)])
    pop = p.total_votes().population()
    first = canonical(p, 5, (pop // 4, 3 * pop // 4))
    second = canonical(p, 5, (pop // 4, 3 * pop // 4))
    assert first.value == second.value
    assert dict(first.partition.labels) == dict(second.partition.labels)
    assert validate_partition(p, first.partition, 2, population_window(pop, 2, Fraction(1, 2))).ok
    # Side 1 contains the spine and has no holes (complement connected).
    d = build_decomposition(p, 5)
    side1 = {c for c, lab in first.partition.labels.items() if lab == 1}
    assert set(d.tree) <= side1
    assert cells_connected(set(p.votes) - side1)


def test_canonical_no_plan_in_window():
    p = uniform_rect(6, 6, pop=2)
    assert canonical(p, 3, (35, 37)) is None


def test_canonical_beats_or_equals_tree_plan():
    rng = random.Random(21)
    p = uniform_rect(10, 10, pop=3,
                     a_cells=[(r, c) for r in range(10) for c in range(10) if rng.random() < 0.4])
    d = build_decomposition(p, 5)
    pop = p.total_votes().population()
    window = (0, pop)
    tree_votes = VoteCounts(
        sum(p.votes[c].party_a for c in d.tree), sum(p.votes[c].party_b for c in d.tree)
    )
    total = p.total_votes()
    rest = VoteCounts(total.party_a - tree_votes.party_a, total.party_b - tree_votes.party_b)
    tree_value = abs(district_effgap(tree_votes) + district_effgap(rest))
    plan = canonical(p, 5, window)
    assert plan.value <= tree_value


def test_two_near_stable_reports_delta_and_stability():
    p = uniform_rect(9, 9, pop=1, a_cells=[(r, c) for r in range(9) for c in range(5)])
    res = solve_two_near_stable(p, Fraction(1, 3))
    assert res.t == 3
    assert res.delta_achieved <= res.delta_bound
    pops = [v.population() for v in res.plan.votes]
    assert res.window[0] <= min(pops) and max(pops) <= res.window[1]
    assert res.stability is not None
    # Determinism.
    again = solve_two_near_stable(p, Fraction(1, 3))
    assert dict(again.plan.partition.labels) == dict(res.plan.partition.labels)


def window_reference(pop, epsilon, max_cell_pop):
    """The inline window formula that grid.population_window replaced."""
    half_width = min(epsilon * max_cell_pop, Fraction(1, 2))
    lo_frac = (Fraction(1, 2) - half_width) * pop
    hi_frac = (Fraction(1, 2) + half_width) * pop
    lo = max(0, -(-lo_frac.numerator // lo_frac.denominator))
    hi = min(pop, hi_frac.numerator // hi_frac.denominator)
    return lo, hi


def test_two_near_stable_window_matches_inline_formula():
    # Population sits in one spine cell and one cell off the spine, split
    # as evenly as it goes, so spine versus rest is valid exactly when the
    # window holds an integer.
    outcomes = set()
    for pop in range(14):
        votes = {(r, c): VoteCounts(0, 0) for r in range(6) for c in range(6)}
        votes[(0, 0)] = VoteCounts(pop // 2, 0)
        votes[(1, 1)] = VoteCounts(0, pop - pop // 2)
        p = GridPolygon(6, 6, votes)
        for eps in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)):
            for cap in (None, *range(8)):
                max_cell_pop = pop - pop // 2 if cap is None else cap
                lo, hi = window_reference(pop, eps, max_cell_pop)
                outcomes.add((eps * max_cell_pop > Fraction(1, 2), lo <= hi))
                if lo > hi:
                    with pytest.raises(CanonicalPlanError, match="no canonical plan in window"):
                        solve_two_near_stable(p, eps, cap)
                else:
                    assert solve_two_near_stable(p, eps, cap).window == (lo, hi)
    assert outcomes == {(False, False), (False, True), (True, True)}


def test_two_near_stable_epsilon_too_small():
    p = uniform_rect(12, 12)
    with pytest.raises(ValueError, match="larger epsilon"):
        solve_two_near_stable(p, Fraction(1, 7))


# ---------------------------------------------------------------------------
# Output pins, the per-pair reference loop, pass counters, interior limit
# ---------------------------------------------------------------------------


def random_rect(seed, m, n, lo=1, hi=3, zero=0.0):
    rng = random.Random(seed)
    votes = {}
    for r in range(m):
        for c in range(n):
            pop = 0 if rng.random() < zero else rng.randint(lo, hi)
            a = rng.randint(0, pop)
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(m, n, votes)


def case1_winner():
    """6x6 with population only in the middle and a few edge cells."""
    rng = random.Random(2)
    votes = {}
    for r in range(6):
        for c in range(6):
            edge = r in (0, 5) or c in (0, 5)
            pop = 0 if edge and rng.random() < 0.8 else rng.randint(0, 6)
            a = rng.randint(0, pop)
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(6, 6, votes)


def stable_digest(res):
    plan = res.plan
    blob = repr((plan.value, plan.source, [(v.party_a, v.party_b) for v in plan.votes],
                 sorted(plan.partition.labels.items()), res.window,
                 str(res.delta_achieved), str(res.stability)))
    return hashlib.sha256(blob.encode()).hexdigest()


# (instance, epsilon, max_cell_pop override, source, value, digest); the
# digests were recorded from the per-pair loop that score-then-verify replaced.
STABLE_PINS = {
    "10x10-e1_3": (lambda: random_rect(1, 10, 10), "1/3", None, "canonical", 22,
                   "eabb97a406322c960db0eaa774c7c305e748aa8cd6f5b21d4fad4250e7bbbf5b"),
    "12x12-e1_4-pop1": (lambda: random_rect(2, 12, 12, 1, 1), "1/4", None, "canonical", 132,
                        "be21309ee57fcda9877ba3664732a2dfc6b24759c001fd7a7016bf61aaf3c548"),
    "15x15-e1_5": (lambda: random_rect(3, 15, 15), "1/5", None, "canonical", 0,
                   "104367735c3e66d8e3e29e752cb3f1f3a7c4b990ea7c621cb70ba40eb19317f9"),
    "20x20-e1_4": (lambda: random_rect(4, 20, 20), "1/4", None, "canonical", 1,
                   "c72e010a345f7d6d16c880a79fefcaeaf18ff723c1a661ecd57b0f43858c37a3"),
    "ragged-15x9-e1_4-pop1": (lambda: random_rect(5, 15, 9, 1, 1), "1/4", None, "canonical", 93,
                              "7292c798b5129acfbd2182f703631badf8b2aebefca62908fb90e04e5d85cd0d"),
    "ragged-7x17-e1_5": (lambda: random_rect(6, 7, 17), "1/5", None, "canonical", 24,
                         "deaa743dfa97c422a78bc6b3c7a4c3bbbc5a2624a4379f5ee79a2b95aa86228d"),
    "zeros-10x15-e1_5": (lambda: random_rect(7, 10, 15, zero=0.3), "1/5", 1, "canonical", 1,
                         "80619021eea5df65ed52bb750754257ce2ac83c515b93556c4c78cd0e9559c12"),
    "case1-6x6-e1_5": (case1_winner, "1/5", None, "case1", 27,
                       "8c66cbe226b2f3a9a45a43170a5bec0e6839207e58284cb729adbd2d5fdbb05c"),
}


@pytest.mark.parametrize("name", sorted(STABLE_PINS))
def test_two_near_stable_output_pins_and_pass_counters(name):
    make, eps, cap, source, value, digest = STABLE_PINS[name]
    p = make()
    res = solve_two_near_stable(p, Fraction(eps), cap)
    assert (res.plan.source, res.plan.value) == (source, value)
    assert stable_digest(res) == digest
    assert set(res.passes) == {"case1", "canonical"}
    for counts in res.passes.values():
        assert counts.checks <= counts.in_window <= counts.candidates
    assert res.passes[source].checks >= 1
    d = build_decomposition(p, res.t)
    assert res.passes["case1"].candidates == sum((1 << len(i)) - 1 for i in d.interiors)
    table = reach_table(p, d)
    assert res.passes["canonical"].candidates == 1 + len(table.first_marked)


def canonical_loop_reference(p, t, window):
    """The per-pair loop: rebuild and flood-fill both sides of every pair."""
    d = build_decomposition(p, t)
    idx = _MaskIndex.of_polygon(p)
    table = build_reach_table(d, idx)
    lo, hi = window
    total = p.total_votes()
    best_key = best = None
    for pair in sorted({(0, 0)} | set(table.first_marked)):
        side1 = set(d.tree)
        for ri, mask in enumerate(_reconstruct_masks(table, pair, len(d.rects))):
            if mask:
                choice = next(c for c in table.choices[ri] if c.mask == mask)
                side1.update(mask_cells(idx, choice.added))
        side2 = set(p.votes) - side1
        if not side2 or not cells_connected(side1) or not cells_connected(side2):
            continue
        v1 = VoteCounts(sum(p.votes[c].party_a for c in side1),
                        sum(p.votes[c].party_b for c in side1))
        v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
        if not (lo <= v1.population() <= hi and lo <= v2.population() <= hi):
            continue
        key = (abs(district_effgap(v1) + district_effgap(v2)), pair)
        if best_key is None or key < best_key:
            best_key, best = key, (key[0], (v1, v2), side1)
    return best


def case1_loop_reference(p, t, window):
    """The mask loop: (value, block, mask) minimum over valid subsets."""
    d = build_decomposition(p, t)
    lo, hi = window
    total = p.total_votes()
    best_key = best = None
    for ri, interior in enumerate(d.interiors):
        cells = sorted(interior)
        for mask in range(1, 1 << len(cells)):
            subset = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            v1 = VoteCounts(sum(p.votes[c].party_a for c in subset),
                            sum(p.votes[c].party_b for c in subset))
            v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
            if not (lo <= v1.population() <= hi and lo <= v2.population() <= hi):
                continue
            if not cells_connected(subset) or not cells_connected(set(p.votes) - subset):
                continue
            key = (abs(district_effgap(v1) + district_effgap(v2)), ri, mask)
            if best_key is None or key < best_key:
                best_key, best = key, (key[0], (v1, v2), subset)
    return best


def plan_summary(plan):
    side1 = {c for c, lab in plan.partition.labels.items() if lab == 1}
    return plan.value, plan.votes, side1


def test_score_then_verify_matches_reference_loops():
    rng = random.Random(5)
    compared = canonical_found = case1_found = 0
    while compared < 40:
        m, n, t = rng.randint(5, 12), rng.randint(5, 12), rng.randint(3, 5)
        p = random_rect(rng.random(), m, n, 0, rng.randint(1, 3), zero=rng.choice([0.0, 0.3]))
        if max(len(i) for i in build_decomposition(p, t).interiors) > 9:
            continue  # keep the reference loops' enumeration small
        pop = p.total_votes().population()
        lo = rng.randint(0, pop // 2)
        window = (lo, rng.randint(max(lo, pop - lo - 3), pop))
        want = canonical_loop_reference(p, t, window)
        counts = PassCounts()
        if want is None:
            assert canonical(p, t, window, counts=counts) is None
        else:
            assert plan_summary(canonical(p, t, window, counts=counts)) == want
            canonical_found += 1
        assert counts.checks <= counts.in_window <= counts.candidates
        want = case1_loop_reference(p, t, window)
        got = case1(p, t, window)
        assert (got and plan_summary(got)) == want
        case1_found += want is not None
        compared += 1
    # The comparison must cover both outcomes of both passes.
    assert 0 < canonical_found < compared and 0 < case1_found < compared


def test_pass_counters_when_nothing_passes():
    p = uniform_rect(6, 6, pop=2)
    counts = PassCounts()
    assert case1(p, 5, (30, 40), counts=counts) is None
    assert counts == PassCounts(candidates=15, in_window=0, checks=0)
    counts = PassCounts()
    assert canonical(p, 3, (35, 37), counts=counts) is None
    assert counts.in_window == counts.checks == 0 and counts.candidates == 1


@pytest.mark.parametrize("solver", [solve_case1, solve_canonical])
def test_oversized_interior_rejected_before_enumeration(solver):
    # One 9x9 block at t=5: its interior is the 5x5 middle, 2**25 subsets.
    p = uniform_rect(9, 9)
    with pytest.raises(ValueError, match=r"block 0 \(rows 0-8, cols 0-8\) has 25 interior cells"):
        solver(build_decomposition(p, 5), _MaskIndex.of_polygon(p), (0, 81))
    with pytest.raises(ValueError, match="at most 16"):
        reach_table(p, build_decomposition(p, 5))


def small_pop_rect(seed, side, pops):
    rng = random.Random(seed)
    votes = {}
    for r in range(side):
        for c in range(side):
            pop = rng.choice(pops)
            a = rng.randint(0, pop)
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(side, side, votes)


@pytest.mark.parametrize("seed, side, pops", [
    (58, 10, (0, 1, 2)),  # the best value is reached in two blocks: the lower block wins
    (75, 7, (0, 0, 1, 4)),  # 3x3 interior: the best-valued subset rings the centre cell
])
def test_case1_tie_break_and_enclosing_subset_match_reference(seed, side, pops):
    p = small_pop_rect(seed, side, pops)
    window = (0, p.total_votes().population())
    got = case1(p, 5, window)
    assert plan_summary(got) == case1_loop_reference(p, 5, window)


# sha256 over the backpointers, layer sizes and per-choice connectors,
# recorded before the spine-adjacency and sort hoists.  The size of the
# mark set after block b is 1 plus the pairs first marked at a block <= b.
REACH_PINS = [
    ((1, 10, 10), 5, 91, "c03d0916ca1d2f7f5238fad34e3ef78a09e115a4f4724514b8a4eec06e0a1faf"),
    ((6, 7, 17), 5, 391, "eda77dab392d31caf6bc936e29fdf0131b33f1c0b191c9f0986e2df9e50afe3f"),
    ((4, 20, 20), 4, 250, "99b2b46ba67987a811b64ae369a7d49045449ce42e29742a2330702ad40436bc"),
]


@pytest.mark.parametrize("args, t, marked, digest", REACH_PINS)
def test_reach_table_pins(args, t, marked, digest):
    p = random_rect(*args)
    idx = _MaskIndex.of_polygon(p)
    table = build_reach_table(build_decomposition(p, t), idx)
    firsts = [ri for ri, _, _ in table.first_marked.values()]
    layer_sizes = [1 + sum(ri <= b for ri in firsts) for b in range(len(table.choices))]
    blob = repr((sorted(table.first_marked.items()), layer_sizes,
                 [[(c.mask, mask_cells(idx, c.connectors)) for c in block]
                  for block in table.choices]))
    assert len(table.first_marked) == marked
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
