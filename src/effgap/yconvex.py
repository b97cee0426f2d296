"""Exact minimum-gap y-convex equipartitions via a column dynamic program.

A region is y-convex when its intersection with every grid column is a
single vertical segment.  The DP sweeps columns left to right.  A state
key holds one ``(party_a, party_b, status, interval)`` tuple per
district label: the label's accumulated vote totals, its lifecycle
status and its segment in the current column.  A step cuts the next
column's cells into labelled segments, listed top to bottom as
``((label, interval), ...)``.  Two contiguity rules beyond the vote
recurrence keep every district connected: a label active in consecutive
columns must overlap by at least one row, and a label that has gone
inactive never reappears.

``transition_feasible`` states that single-step rule on a key and its
segments, independently of the solver.  ``solve_yconvex`` applies it to
the same tuples: each column's cuts into segments, with every segment's
vote totals from prefix sums, are tabulated once per solve, and a
segment joins a label only while that label stays within the district
population, so over-full candidates are never built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import VoteCounts, district_effgap
from .grid import GridPartition, GridPolygon, population_window

UNSTARTED = 0
ACTIVE = 1
FINISHED = 2

Interval = tuple[int, int]  # inclusive (top_row, bottom_row)


@dataclass(frozen=True)
class TransitionResult:
    ok: bool
    state: tuple | None = None  # the next state key
    reason: str | None = None


def _column_run(p: GridPolygon, column: int) -> Interval | None:
    """The column's single contiguous run, or None when empty.

    Columns whose cells form two or more disjoint runs are rejected;
    such polygons are outside this solver's scope.
    """
    rows = sorted(r for (r, c) in p.votes if c == column)
    if not rows:
        return None
    if rows[-1] - rows[0] + 1 != len(rows):
        raise ValueError(f"column {column} not y-convex-compatible")
    return rows[0], rows[-1]


def _compositions(lo: int, hi: int, parts: int) -> Iterator[tuple[Interval, ...]]:
    """Cuts of the inclusive row range [lo, hi] into `parts` intervals."""
    length = hi - lo + 1
    for cuts in itertools.combinations(range(1, length), parts - 1):
        bounds = (0,) + cuts + (length,)
        yield tuple((lo + bounds[i], lo + bounds[i + 1] - 1) for i in range(parts))


def transition_feasible(
    p: GridPolygon, column: int, key: tuple, segments: tuple[tuple[int, Interval], ...]
) -> TransitionResult:
    """Apply one column's labelled segments to the state key of the column before.

    The segments must cut the column's cells top to bottom into
    non-empty runs, each label at most once.  Accumulators advance by
    the segment's vote totals; a label active in both columns must
    overlap its previous segment by at least one row, a previously
    active label with no segment becomes finished, and a finished label
    may never reactivate.
    """
    run = _column_run(p, column)
    want = list(range(run[0], run[1] + 1)) if run else []
    rows = [r for _, (top, bottom) in segments for r in range(top, bottom + 1)]
    if rows != want or any(top > bottom for _, (top, bottom) in segments):
        return TransitionResult(False, reason=f"segments do not cut column {column}")
    intervals = dict(segments)
    if len(intervals) != len(segments) or not all(1 <= lab <= len(key) for lab in intervals):
        return TransitionResult(False, reason=f"labels not distinct in 1..{len(key)}")
    nxt = []
    for label, (a, b, status, prev) in enumerate(key, start=1):
        interval = intervals.get(label)
        if interval is None:
            nxt.append((a, b, FINISHED if status == ACTIVE else status, None))
            continue
        if status == FINISHED:
            return TransitionResult(False, reason=f"label {label} reactivated")
        if status == ACTIVE and (prev[0] > interval[1] or interval[0] > prev[1]):
            return TransitionResult(
                False, reason=f"label {label} no overlap, district disconnected"
            )
        for r in range(interval[0], interval[1] + 1):
            v = p.votes[(r, column)]
            a += v.party_a
            b += v.party_b
        nxt.append((a, b, ACTIVE, interval))
    return TransitionResult(True, tuple(nxt))


def is_yconvex_partition(q: GridPartition) -> bool:
    """True when every label's cells form one vertical run per column."""
    per_label_col: dict[tuple[int, int], list[int]] = {}
    for (r, c), lab in q.labels.items():
        per_label_col.setdefault((lab, c), []).append(r)
    for rows in per_label_col.values():
        rows.sort()
        if rows[-1] - rows[0] + 1 != len(rows):
            return False
    return True


@dataclass(frozen=True)
class YConvexResult:
    feasible: bool
    value: int | None  # scaled optimum
    partition: GridPartition | None
    max_column_states: int = 0
    max_vote_vectors: int = 0  # distinct per-label accumulator vectors in any column


def _column_table(p: GridPolygon, column: int, kappa: int, target: int) -> list[tuple]:
    """Every cut of the column's run, in enumeration order.

    Cuts come by ascending segment count, then in ``_compositions``
    order; each is a tuple of ``(interval, party_a, party_b)`` per
    segment, top to bottom, with totals from prefix sums.  A cut with a
    segment above the target population fits no label and is left out.
    """
    lo, hi = _column_run(p, column)
    pre_a = [0]
    pre_b = [0]
    for r in range(lo, hi + 1):
        v = p.votes[(r, column)]
        pre_a.append(pre_a[-1] + v.party_a)
        pre_b.append(pre_b[-1] + v.party_b)
    table = []
    for parts in range(1, min(kappa, hi - lo + 1) + 1):
        for intervals in _compositions(lo, hi, parts):
            cut = []
            for top, bottom in intervals:
                a = pre_a[bottom - lo + 1] - pre_a[top - lo]
                b = pre_b[bottom - lo + 1] - pre_b[top - lo]
                if a + b > target:
                    break
                cut.append(((top, bottom), a, b))
            else:
                table.append(tuple(cut))
    return table


def _successors(key: tuple, table: list[tuple], kappa: int, target: int) -> list[tuple]:
    """Successor keys of one state key, with the segments that produce them.

    Each segment continues an overlapping active label or starts the
    next unused one, so interchangeable labelings are explored once.
    Labels are tried in index order with the fresh label last, and a
    label may take a segment only while its population stays within
    the target; an active label left without a segment finishes, so it
    must already hold the target.  Returns ``(successor key,
    ((label, interval), ...))`` pairs in enumeration order.
    """
    active = [(idx, st[3], st[0] + st[1]) for idx, st in enumerate(key) if st[2] == ACTIVE]
    must_continue = 0  # active labels below target, as a bitmask
    for idx, _, pop in active:
        if pop != target:
            must_continue |= 1 << idx
    used = sum(1 for st in key if st[2] != UNSTARTED)
    base = tuple((st[0], st[1], FINISHED, None) if st[2] == ACTIVE else st for st in key)
    out: list[tuple] = []
    chosen: list[int] = []

    def assign(cut: tuple, i: int, taken: int, next_new: int) -> None:
        if i == len(cut):
            if must_continue & ~taken:
                return
            new = list(base)
            for idx, (interval, a, b) in zip(chosen, cut):
                st = key[idx]
                new[idx] = (st[0] + a, st[1] + b, ACTIVE, interval)
            out.append((tuple(new), tuple((idx + 1, seg[0]) for idx, seg in zip(chosen, cut))))
            return
        (top, bottom), a, b = cut[i]
        for idx, interval, pop in active:
            bit = 1 << idx
            if taken & bit or interval[0] > bottom or top > interval[1]:
                continue
            if pop + a + b <= target:
                chosen.append(idx)
                assign(cut, i + 1, taken | bit, next_new)
                chosen.pop()
        if next_new < kappa:
            chosen.append(next_new)
            assign(cut, i + 1, taken, next_new + 1)
            chosen.pop()

    for cut in table:
        assign(cut, 0, 0, used)
    return out


def solve_yconvex(p: GridPolygon, kappa: int) -> YConvexResult:
    """Minimum total absolute gap over y-convex kappa-equipartitions.

    Requires every polygon column to be a single run, for every kappa.
    Returns the scaled optimum and a witness partition found by
    backtracking, or an infeasible result when no y-convex equipartition
    exists.  Frontier keys are expanded in sorted order and the first
    path to reach a key is kept, so the witness is deterministic.
    """
    total = p.total_votes()
    lo, target = population_window(total.population(), kappa)  # checks kappa
    columns = sorted({c for (_, c) in p.votes})
    # Raises on multi-run columns before any shortcut or state expansion.
    tables = {col: _column_table(p, col, kappa, target) for col in columns}
    if kappa == 1:
        labels = {cell: 1 for cell in p.votes}
        return YConvexResult(True, abs(district_effgap(total)), GridPartition(labels), 1)
    if kappa > p.size or lo > target:
        return YConvexResult(False, None, None, 0)

    frontier: list[tuple] = [((0, 0, UNSTARTED, None),) * kappa]
    # Backpointers keyed by (column, state key): identical states can recur
    # across columns when columns carry no population.
    back: dict[tuple[int, tuple], tuple[tuple, tuple]] = {}
    max_states = 1
    max_vectors = 1
    prev_col = columns[0] - 1

    for col in columns:
        # Segments only extend into the adjacent column; a gap column
        # admits no transition.
        table = tables[col] if col == prev_col + 1 else []
        prev_col = col
        nxt: dict[tuple, None] = {}
        for key in sorted(frontier):
            for nkey, segments in _successors(key, table, kappa, target):
                if nkey not in nxt:
                    nxt[nkey] = None
                    back[(col, nkey)] = (key, segments)
        frontier = list(nxt)
        max_states = max(max_states, len(frontier))
        vectors = {tuple((st[0], st[1]) for st in key) for key in frontier}
        max_vectors = max(max_vectors, len(vectors))
        if not frontier:
            return YConvexResult(False, None, None, max_states, max_vectors)

    best_key = None
    best_value = None
    for key in sorted(frontier):
        if any(st[2] == UNSTARTED or st[0] + st[1] != target for st in key):
            continue
        value = abs(sum(district_effgap(VoteCounts(st[0], st[1])) for st in key))
        if best_value is None or value < best_value:
            best_value = value
            best_key = key
    if best_key is None:
        return YConvexResult(False, None, None, max_states, max_vectors)

    labels: dict[tuple[int, int], int] = {}
    key = best_key
    for col in reversed(columns):
        prev_key, segments = back[(col, key)]
        for lab, (top, bottom) in segments:
            for r in range(top, bottom + 1):
                labels[(r, col)] = lab
        key = prev_key
    return YConvexResult(True, best_value, GridPartition(labels), max_states, max_vectors)
