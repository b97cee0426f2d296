import hashlib
import random

import pytest

from effgap.core import VoteCounts, district_effgap, total_effgap
from effgap.grid import (
    GridPolygon,
    enumerate_equipartitions,
    partition_vote_totals,
    validate_partition,
)
from effgap.yconvex import (
    ColumnSegmentation,
    DPState,
    LabelState,
    ACTIVE,
    FINISHED,
    UNSTARTED,
    enumerate_segmentations,
    is_yconvex_partition,
    solve_yconvex,
    transition_feasible,
)
from conftest import cells_connected, polygon, random_column_polygon, uniform_rect


def test_segmentations_two_cells_two_labels():
    p = uniform_rect(2, 1)
    segs = enumerate_segmentations(p, 0, 2)
    assert len(segs) == 4
    shapes = {tuple(s.segments) for s in segs}
    assert ((1, (0, 1)),) in shapes and ((2, (0, 1)),) in shapes
    assert ((1, (0, 0)), (2, (1, 1))) in shapes and ((2, (0, 0)), (1, (1, 1))) in shapes


def test_segmentations_one_cell_three_labels():
    p = uniform_rect(1, 1)
    assert len(enumerate_segmentations(p, 0, 3)) == 3


def test_segmentations_empty_column():
    p = polygon({(0, 0): (1, 0)}, rows=1, cols=2)
    segs = enumerate_segmentations(p, 1, 2)
    assert segs == [ColumnSegmentation(1, ())]


def test_segmentations_reject_multi_run_column():
    p = polygon({(0, 0): (1, 0), (2, 0): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0), (2, 1): (1, 0)})
    with pytest.raises(ValueError, match="not y-convex-compatible"):
        enumerate_segmentations(p, 0, 2)


def _state(column, entries):
    return DPState(column, tuple(LabelState(*e) for e in entries))


def test_transition_overlap_ok():
    p = uniform_rect(3, 2)
    prev = _state(0, [(1, 1, ACTIVE, (0, 1)), (1, 0, ACTIVE, (2, 2))])
    seg = ColumnSegmentation(1, ((1, (1, 2)),))
    res = transition_feasible(p, prev, seg)
    # Label 1 overlaps at row 1; label 2 goes inactive and is finished.
    assert res.ok
    assert res.state.labels[0].status == ACTIVE
    assert res.state.labels[1].status == FINISHED


def test_transition_no_overlap_rejected_and_truly_disconnected():
    p = uniform_rect(3, 2)
    prev = _state(0, [(1, 0, ACTIVE, (0, 0)), (0, 0, UNSTARTED, None)])
    seg = ColumnSegmentation(1, ((1, (2, 2)),))
    res = transition_feasible(p, prev, seg)
    assert not res.ok and "no overlap" in res.reason
    # Independent connectivity check: those two cells really are disconnected.
    assert not cells_connected({(0, 0), (2, 1)})


def test_transition_reactivation_rejected():
    p = uniform_rect(3, 3)
    prev = _state(1, [(2, 0, FINISHED, None), (1, 0, ACTIVE, (0, 2))])
    seg = ColumnSegmentation(2, ((1, (0, 0)), (2, (1, 2))))
    res = transition_feasible(p, prev, seg)
    assert not res.ok and "reactivated" in res.reason


def test_transition_accumulates_votes():
    p = polygon({(0, 0): (1, 0), (0, 1): (2, 1), (1, 1): (0, 3)})
    prev = _state(0, [(1, 0, ACTIVE, (0, 0)), (0, 0, UNSTARTED, None)])
    seg = ColumnSegmentation(1, ((1, (0, 0)), (2, (1, 1))))
    res = transition_feasible(p, prev, seg)
    assert res.ok
    assert res.state.labels[0] == LabelState(3, 1, ACTIVE, (0, 0))
    assert res.state.labels[1] == LabelState(0, 3, ACTIVE, (1, 1))


def test_solve_2x2_row_split():
    p = polygon({(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (0, 1)})
    res = solve_yconvex(p, 2)
    assert res.feasible and res.value == 0
    assert validate_partition(p, res.partition, 2).ok
    assert is_yconvex_partition(res.partition)


def test_solve_1x4_row():
    p = polygon({(0, 0): (1, 0), (0, 1): (1, 0), (0, 2): (0, 1), (0, 3): (0, 1)})
    # Three y-convex splits by hand: after column 1, 2, or 3; the middle
    # split cancels exactly.
    values = []
    for cut in (1, 2, 3):
        left = VoteCounts(min(cut, 2), max(0, cut - 2))
        right = VoteCounts(2 - left.party_a, 2 - left.party_b)
        values.append(abs(district_effgap(left) + district_effgap(right)))
    assert min(values) == 0
    res = solve_yconvex(p, 2)
    assert res.value == 0


def test_solve_kappa_one():
    p = uniform_rect(2, 2, pop=3, a_cells=[(0, 0)])
    res = solve_yconvex(p, 1)
    assert res.feasible
    assert res.value == abs(district_effgap(p.total_votes()))


def test_solve_infeasible_population():
    p = polygon({(0, 0): (0, 1), (0, 1): (0, 2)})
    assert not solve_yconvex(p, 2).feasible


def test_state_count_bound():
    rng = random.Random(11)
    for _ in range(10):
        p = random_column_polygon(rng, max_cells=10)
        kappa = rng.choice([2, 3])
        res = solve_yconvex(p, kappa)
        pop = p.total_votes().population()
        assert res.max_vote_vectors <= (pop + 1) ** (2 * kappa)


def test_agrees_with_oracle_restricted_to_yconvex():
    rng = random.Random(12)
    feasible = 0
    for i in range(60):
        uniform = i % 2 == 0
        p = random_column_polygon(rng, max_cells=10, uniform=uniform)
        kappa = rng.choice([2, 3])
        res = solve_yconvex(p, kappa)
        best = None
        for q in enumerate_equipartitions(p, kappa):
            if is_yconvex_partition(q):
                stats = total_effgap(partition_vote_totals(p, q, kappa))
                v = stats.total_scaled_abs
                best = v if best is None else min(best, v)
        assert (best is None) == (not res.feasible)
        if best is not None:
            feasible += 1
            assert res.value == best
            assert validate_partition(p, res.partition, kappa).ok
            assert is_yconvex_partition(res.partition)
    assert feasible >= 5


def test_deterministic_witness():
    p = uniform_rect(3, 3)
    a = solve_yconvex(p, 3)
    b = solve_yconvex(p, 3)
    assert a.value == b.value
    assert dict(a.partition.labels) == dict(b.partition.labels)


def _seeded_rect(m, n, seed, pop=2):
    rng = random.Random(seed)
    votes = {}
    for r in range(m):
        for c in range(n):
            a = rng.randint(0, pop)
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(m, n, votes)


def _witness_digest(partition):
    text = ";".join(f"{r},{c}:{lab}" for (r, c), lab in sorted(partition.labels.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# (instance, kappa, value, max_column_states, max_vote_vectors, witness sha256);
# the column polygons (seeds 50 and 52) contain zero-population cells.
PINNED = [
    (lambda: _seeded_rect(4, 4, 1), 4, 0, 119, 57,
     "76ea3bff556ea113f7f49e25084d3302633f37171f8d55509e560d1f22dcd1a3"),
    (lambda: _seeded_rect(3, 8, 2), 4, 12, 310, 212,
     "5e806f5f7a6fbf72e6fe0f0457b021995370d0169a47a5535ea724ca8db86aec"),
    (lambda: _seeded_rect(4, 6, 3), 3, 4, 532, 218,
     "20f6de9b217c5e14da56e95af777ed2f324c8ae74df4c482a63f53c6e3a4041c"),
    (lambda: _seeded_rect(5, 5, 4), 5, 2, 3210, 1698,
     "379f498c3cdd6233094d7053add290a8c78cf222d01d5ba91b74cf94049b8939"),
    (lambda: random_column_polygon(random.Random(50), max_cells=12), 3, 2, 11, 7,
     "8428271e2abcd103c120a74c8423ec320e47af9298b1edf2d6023f0a0ad91a41"),
    (lambda: random_column_polygon(random.Random(52), max_cells=12), 2, 10, 3, 3,
     "163b4319f7898acd0d2eab34eb6bcffd8c758ea677319499b6e946e44c04bb2f"),
]


@pytest.mark.parametrize("build,kappa,value,states,vectors,digest", PINNED)
def test_pinned_optimum_witness_and_counters(build, kappa, value, states, vectors, digest):
    res = solve_yconvex(build(), kappa)
    assert res.feasible and res.value == value
    assert (res.max_column_states, res.max_vote_vectors) == (states, vectors)
    assert _witness_digest(res.partition) == digest


def _witness_segmentations(p, partition):
    """One ColumnSegmentation per polygon column, segments top to bottom."""
    columns = sorted({c for _, c in p.votes})
    segs = []
    for col in columns:
        rows_of: dict[int, list[int]] = {}
        for (r, c), lab in partition.labels.items():
            if c == col:
                rows_of.setdefault(lab, []).append(r)
        segments = sorted(((lab, (min(rows), max(rows))) for lab, rows in rows_of.items()),
                          key=lambda s: s[1])
        segs.append(ColumnSegmentation(col, tuple(segments)))
    return columns, segs


def test_witness_replays_through_transition_rule():
    rng = random.Random(31)
    replayed = 0
    for _ in range(80):
        p = random_column_polygon(rng, max_cells=12, uniform=rng.random() < 0.3)
        kappa = rng.choice([2, 3])
        res = solve_yconvex(p, kappa)
        if not res.feasible:
            continue
        replayed += 1
        target = p.total_votes().population() // kappa
        columns, segs = _witness_segmentations(p, res.partition)
        state = DPState(columns[0] - 1, tuple(LabelState(0, 0, UNSTARTED, None) for _ in range(kappa)))
        for seg in segs:
            step = transition_feasible(p, state, seg)
            assert step.ok, step.reason
            state = step.state
        assert all(st.population() == target for st in state.labels)
        signed = sum(district_effgap(VoteCounts(st.party_a, st.party_b)) for st in state.labels)
        assert abs(signed) == res.value
    assert replayed >= 10
