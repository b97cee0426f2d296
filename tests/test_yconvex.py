import hashlib
import random

import pytest

from effgap.core import VoteCounts, district_effgap, total_effgap
from effgap.grid import (
    GridPartition,
    GridPolygon,
    validate_partition,
)
from effgap import yconvex
from effgap.yconvex import (
    ACTIVE,
    FINISHED,
    UNSTARTED,
    is_yconvex_partition,
    solve_yconvex,
    transition_feasible,
)
from conftest import (
    cells_connected,
    column_table_reference,
    cut_segments,
    enumerate_equipartitions,
    partition_vote_totals,
    polygon,
    random_column_polygon,
    random_even_rect,
    successors_reference,
    uniform_rect,
)

# Column 0 holds two runs, rows 0 and 2: outside the solver's scope.
C_SHAPE = ((0, 0), (2, 0), (0, 1), (1, 1), (2, 1))


def test_multi_run_column_rejected_for_every_kappa():
    for votes in ((1, 0), (1, 1)):
        p = polygon({cell: votes for cell in C_SHAPE})
        for kappa in (1, 2, 3):
            with pytest.raises(ValueError, match="column 0 not y-convex-compatible"):
                solve_yconvex(p, kappa)


def test_transition_overlap_ok():
    p = uniform_rect(3, 2)
    key = ((1, 1, ACTIVE, (0, 1)), (1, 0, ACTIVE, (2, 2)), (0, 0, UNSTARTED, None))
    res = transition_feasible(p, 1, key, ((3, (0, 0)), (1, (1, 2))))
    # Label 1 overlaps at row 1; label 2 goes inactive and is finished.
    assert res.ok
    assert res.state == ((1, 3, ACTIVE, (1, 2)), (1, 0, FINISHED, None), (0, 1, ACTIVE, (0, 0)))


def test_transition_no_overlap_rejected_and_truly_disconnected():
    p = uniform_rect(3, 2)
    key = ((1, 0, ACTIVE, (0, 0)), (0, 0, UNSTARTED, None))
    res = transition_feasible(p, 1, key, ((2, (0, 1)), (1, (2, 2))))
    assert not res.ok and "no overlap" in res.reason
    # Independent connectivity check: those two cells really are disconnected.
    assert not cells_connected({(0, 0), (2, 1)})


def test_transition_reactivation_rejected():
    p = uniform_rect(3, 3)
    key = ((2, 0, FINISHED, None), (1, 0, ACTIVE, (0, 2)))
    res = transition_feasible(p, 2, key, ((1, (0, 0)), (2, (1, 2))))
    assert not res.ok and "reactivated" in res.reason


def test_transition_accumulates_votes():
    p = polygon({(0, 0): (1, 0), (0, 1): (2, 1), (1, 1): (0, 3)})
    key = ((1, 0, ACTIVE, (0, 0)), (0, 0, UNSTARTED, None))
    res = transition_feasible(p, 1, key, ((1, (0, 0)), (2, (1, 1))))
    assert res.ok
    assert res.state == ((3, 1, ACTIVE, (0, 0)), (0, 3, ACTIVE, (1, 1)))


@pytest.mark.parametrize("segments, reason", [
    (((1, (0, 1)),), "do not cut column 1"),  # row 2 left out
    (((2, (1, 2)), (1, (0, 0))), "do not cut column 1"),  # not top to bottom
    (((1, (0, 1)), (1, (1, 2))), "do not cut column 1"),  # row 1 twice
    (((1, (0, 2)), (2, (3, 2))), "do not cut column 1"),  # an empty segment
    (((2, (0, 0)), (2, (1, 2))), "labels not distinct in 1..2"),
    (((1, (0, 0)), (3, (1, 2))), "labels not distinct in 1..2"),
], ids=["gap", "order", "overlap", "empty", "repeated-label", "label-out-of-range"])
def test_transition_rejects_segments_that_do_not_cut_the_column(segments, reason):
    p = uniform_rect(3, 2)
    key = ((1, 1, ACTIVE, (0, 1)), (0, 0, UNSTARTED, None))
    res = transition_feasible(p, 1, key, segments)
    assert not res.ok and res.reason.endswith(reason)


def test_transition_over_a_column_with_no_cells():
    """Column 1 holds no cell: no segments finish every active label and
    leave the others as they were, and any segment is refused."""
    p = polygon({(0, 0): (1, 0), (1, 0): (0, 1)}, cols=2)
    key = ((1, 0, ACTIVE, (0, 0)), (0, 1, ACTIVE, (1, 1)), (3, 2, FINISHED, None), (0, 0, UNSTARTED, None))
    res = transition_feasible(p, 1, key, ())
    assert res.ok
    assert res.state == ((1, 0, FINISHED, None), (0, 1, FINISHED, None), (3, 2, FINISHED, None),
                         (0, 0, UNSTARTED, None))
    for segments in (((1, (0, 0)),), ((4, (0, 1)),), ((1, (0, 0)), (2, (1, 1)))):
        res = transition_feasible(p, 1, key, segments)
        assert not res.ok and res.reason == "segments do not cut column 1"


def test_solve_2x2_row_split():
    p = polygon({(0, 0): (1, 0), (0, 1): (1, 0), (1, 0): (0, 1), (1, 1): (0, 1)})
    res = solve_yconvex(p, 2)
    assert res.value == 0
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
    assert res.value is not None
    assert res.value == abs(district_effgap(p.total_votes()))
    # One state with one vote vector, as every kappa >= 2 solve starts.
    assert (res.max_column_states, res.max_vote_vectors) == (1, 1)


def test_solve_infeasible_population():
    p = polygon({(0, 0): (0, 1), (0, 1): (0, 2)})
    assert solve_yconvex(p, 2).value is None


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
        assert (best is None) == (res.value is None)
        if best is not None:
            feasible += 1
            assert res.value == best
            assert validate_partition(p, res.partition, kappa).ok
            assert is_yconvex_partition(res.partition)
    assert feasible >= 5


def test_is_yconvex_partition_rejects_a_column_gap():
    # Label 1 holds rows 0 and 2 of column 0, label 2 the row between them.
    gap = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1}
    assert is_yconvex_partition(GridPartition(gap)) is False
    assert is_yconvex_partition(GridPartition({**gap, (2, 0): 2})) is True


def test_yconvex_restriction_bites_on_rectangles():
    """On 3x3 and 3x4 rectangles with 0-2 voters of each party per cell and
    kappa 2, the y-convex filter rejects equipartitions and some instance's
    y-convex optimum lies strictly above the unrestricted one; the DP still
    equals the restricted optimum on every instance."""
    rng = random.Random(1)
    rejected = above = 0
    for i in range(40):
        p = random_even_rect(rng, 3, 3 + i % 2)
        best = ybest = None
        for q in enumerate_equipartitions(p, 2):
            v = total_effgap(partition_vote_totals(p, q, 2)).total_scaled_abs
            best = v if best is None else min(best, v)
            if is_yconvex_partition(q):
                ybest = v if ybest is None else min(ybest, v)
            else:
                rejected += 1
        assert solve_yconvex(p, 2).value == ybest, i
        if ybest is not None and ybest > best:
            above += 1
    assert rejected >= 1 and above >= 1, (rejected, above)


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
    assert res.value == value
    assert (res.max_column_states, res.max_vote_vectors) == (states, vectors)
    assert _witness_digest(res.partition) == digest


# (instance, kappa, max_column_states, max_vote_vectors, columns swept) on the
# early exits PINNED never reaches; none has a y-convex equipartition.
EARLY_EXITS = [
    # Column 1 holds no cell, so no segment crosses it after column 0.
    (lambda: polygon({(0, 0): (1, 0), (1, 0): (0, 1), (2, 0): (1, 0),
                      (0, 2): (0, 1), (1, 2): (1, 0), (2, 2): (0, 1)}), 2, 3, 3, 1),
    # The frontier empties at the third of four columns.
    (lambda: random_column_polygon(random.Random(50), max_cells=12), 2, 7, 6, 3),
    # It empties at the first, whose top cell holds more than a district:
    # the counts are the start state's.
    (lambda: polygon({(0, 0): (3, 0), (0, 1): (0, 1)}), 2, 1, 1, 1),
    # kappa above the cell count, with a window that is not empty: no sweep.
    (lambda: polygon({(0, 0): (1, 0), (0, 1): (1, 1)}), 3, 0, 0, 0),
]


@pytest.mark.parametrize("build,kappa,states,vectors,swept", EARLY_EXITS)
def test_early_exits_keep_their_counters(monkeypatch, build, kappa, states, vectors, swept):
    tables = []
    successors = yconvex._successors

    def recording_successors(key, table, walks, kappa, target):
        if not tables or tables[-1] is not table:
            tables.append(table)
        return successors(key, table, walks, kappa, target)

    monkeypatch.setattr(yconvex, "_successors", recording_successors)
    res = solve_yconvex(build(), kappa)
    assert (res.value, res.partition) == (None, None)
    assert (res.max_column_states, res.max_vote_vectors) == (states, vectors)
    assert len(tables) == swept


def _witness_segments(p, partition):
    """Per polygon column, the witness's ``((label, interval), ...)``, top to bottom."""
    columns = sorted({c for _, c in p.votes})
    steps = []
    for col in columns:
        rows_of: dict[int, list[int]] = {}
        for (r, c), lab in partition.labels.items():
            if c == col:
                rows_of.setdefault(lab, []).append(r)
        segments = sorted(((lab, (min(rows), max(rows))) for lab, rows in rows_of.items()),
                          key=lambda s: s[1])
        steps.append((col, tuple(segments)))
    return columns, steps


def test_witness_replays_through_transition_rule():
    rng = random.Random(31)
    replayed = 0
    for _ in range(80):
        p = random_column_polygon(rng, max_cells=12, uniform=rng.random() < 0.3)
        kappa = rng.choice([2, 3])
        res = solve_yconvex(p, kappa)
        if res.value is None:
            continue
        replayed += 1
        target = p.total_votes().population() // kappa
        columns, steps = _witness_segments(p, res.partition)
        # Each step goes from one column to the next, so the columns must be consecutive.
        assert columns == list(range(columns[0], columns[-1] + 1))
        key = ((0, 0, UNSTARTED, None),) * kappa
        for col, segments in steps:
            step = transition_feasible(p, col, key, segments)
            assert step.ok, step.reason
            key = step.state
        assert all(a + b == target for a, b, _, _ in key)
        signed = sum(district_effgap(VoteCounts(a, b)) for a, b, _, _ in key)
        assert abs(signed) == res.value
    assert replayed >= 10


def test_solver_steps_agree_with_transition_rule(monkeypatch):
    """Every successor the solver builds is the reference rule's next key."""
    column_of = {}
    steps = []
    column_table, successors = yconvex._column_table, yconvex._successors

    def recording_column_table(p, column, target):
        table = column_table(p, column, target)
        column_of[id(table)] = column
        return table

    def recording_successors(key, table, walks, kappa, target):
        out = successors(key, table, walks, kappa, target)
        steps.append((column_of[id(table)], key, out))
        return out

    monkeypatch.setattr(yconvex, "_column_table", recording_column_table)
    monkeypatch.setattr(yconvex, "_successors", recording_successors)
    instances = [(build(), kappa) for build, kappa, *_ in PINNED[:3]]
    rng = random.Random(41)
    instances += [(random_column_polygon(rng, max_cells=12), rng.choice([2, 3])) for _ in range(20)]
    checked = 0
    for p, kappa in instances:
        steps.clear()
        column_of.clear()
        solve_yconvex(p, kappa)
        for col, key, out in steps:
            for nkey, cut in out:
                segments = cut_segments(cut)
                step = transition_feasible(p, col, key, segments)
                assert step.ok and step.state == nkey, (col, key, segments, step.reason)
                checked += 1
    assert checked >= 1000


def test_successors_match_reference(monkeypatch):
    """For every key the solver expands, the interval-order walk builds the
    same (next key, segments) pairs as the reference that tries every cut of
    the column against every label: kappa 2..5, zero-population cells, runs
    of different lengths and polygons with a gap column."""
    column_of = {}
    steps = []
    column_table, successors = yconvex._column_table, yconvex._successors

    def recording_column_table(p, column, target):
        table = column_table(p, column, target)
        column_of[id(table)] = column
        return table

    def recording_successors(key, table, walks, kappa, target):
        out = successors(key, table, walks, kappa, target)
        steps.append((column_of[id(table)], key, out))
        return out

    monkeypatch.setattr(yconvex, "_column_table", recording_column_table)
    monkeypatch.setattr(yconvex, "_successors", recording_successors)
    rng = random.Random(53)
    keys = successor_count = 0
    for trial in range(200):
        p = random_column_polygon(rng, max_cells=14, uniform=trial % 3 == 0)
        if trial % 4 == 3 and p.cols > 1:  # an empty column after the first
            p = GridPolygon(p.rows, p.cols + 1, {(r, c + (c > 0)): v for (r, c), v in p.votes.items()})
        for kappa in range(2, min(5, p.size) + 1):
            # Pad one cell so that kappa divides the total and the DP runs.
            votes = dict(p.votes)
            cell = rng.choice(sorted(votes))
            votes[cell] += VoteCounts(0, -p.total_votes().population() % kappa)
            q = GridPolygon(p.rows, p.cols, votes)
            target = q.total_votes().population() // kappa
            steps.clear()
            column_of.clear()
            solve_yconvex(q, kappa)
            for col, key, out in steps:
                out = [(nkey, cut_segments(cut)) for nkey, cut in out]
                want = successors_reference(key, column_table_reference(q, col, kappa, target), kappa, target)
                assert len(out) == len(set(out)) and set(out) == set(want), (col, key)
                keys += 1
                successor_count += len(out)
    assert keys >= 1000 and successor_count >= 2000, (keys, successor_count)


def test_each_layout_is_walked_once_per_column(monkeypatch):
    """On the 4x6 kappa 3 and 5x5 kappa 5 pins, the DP walks each distinct
    layout of a column once: the active labels' previous intervals, indices
    and room below the target, with the number of labels used.  Keys that
    share a layout share its walk, so there are fewer walks than keys.  On
    a polygon with no voters the target is 0, so a finished label and an
    unstarted one have the same room and only the count of used labels
    tells their layouts apart."""
    walked, expanded, tables = [], [], []
    walk, successors = yconvex._walk, yconvex._successors

    def recording_walk(active, used, table, kappa):
        walked.append((id(table), tuple(active), used))
        return walk(active, used, table, kappa)

    def recording_successors(key, table, walks, kappa, target):
        tables.append(table)  # held, so that no table id is reused
        active = sorted((st[3], i, target - st[0] - st[1]) for i, st in enumerate(key) if st[2] == ACTIVE)
        expanded.append((id(table), tuple(active), sum(st[2] != UNSTARTED for st in key)))
        return successors(key, table, walks, kappa, target)

    monkeypatch.setattr(yconvex, "_walk", recording_walk)
    monkeypatch.setattr(yconvex, "_successors", recording_successors)
    empty = GridPolygon(3, 4, {(r, c): VoteCounts(0, 0) for r in range(3) for c in range(4)})
    for p, kappa in ((PINNED[2][0](), 3), (PINNED[3][0](), 5), (empty, 4)):
        walked.clear()
        expanded.clear()
        solve_yconvex(p, kappa)
        assert sorted(walked) == sorted(set(expanded))
        if p is not empty:  # whose keys differ in layout alone
            assert len(walked) < len(expanded), (len(walked), len(expanded))
