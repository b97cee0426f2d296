"""Exact minimum-gap y-convex equipartitions via a column dynamic program.

A region is y-convex when its intersection with every grid column is a
single vertical segment.  The DP sweeps columns left to right.  A state
key holds one ``(party_a, party_b, status, interval)`` tuple per
district label: the label's accumulated vote totals, its lifecycle
status and its segment in the current column.  A step cuts the next
column's cells into segments, top to bottom, and gives each to a label.
Two contiguity rules beyond the vote recurrence keep every district
connected: a label active in consecutive columns must overlap by at
least one row, and a label that has gone inactive never reappears.

``transition_feasible`` states that single-step rule on a key and its
segments, written ``((label, interval), ...)``, independently of the
solver.  ``solve_yconvex`` builds the same state keys: each column's
segments, grouped by top row and with vote totals from prefix sums, are
tabulated once per solve.  A step builds the column's segments from the
top row down and gives each to a continuing label or a new one.  The
solver keeps a cut as one record, ``((label index, segment), ...)`` top
to bottom, with label index + 1 the label and the segment's first field
its interval; the same record serves the successor keys, the
back-pointers and the witness.  Continuing labels can only be taken in
the order of their previous intervals (``_walk`` has the proof),
so the walk never tries a label it has passed, and it stops as soon as
it passes one still short of the district population.  A segment joins
a label only while that label stays within the district population, so
over-full candidates are never built.  The walk reads only a key's label
layout, not its vote totals, so each layout is walked once per column and
its cuts are replayed for every key that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .core import VoteCounts, district_effgap
from .grid import GridPartition, GridPolygon, population_window

UNSTARTED = 0
ACTIVE = 1
FINISHED = 2

Interval = tuple[int, int]  # inclusive (top_row, bottom_row)
_VOTES = itemgetter(0, 1)  # a label state's (party_a, party_b)


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
    """The DP's optimum; ``value`` and ``partition`` are None when no
    y-convex equipartition exists.  The counters are taken after the
    sweep from the columns it kept, the start state counting as one key
    with one vote vector; both are 0 when no sweep runs."""

    value: int | None  # scaled optimum
    partition: GridPartition | None
    max_column_states: int = 0
    max_vote_vectors: int = 0  # distinct per-label accumulator vectors in any column


def _column_table(p: GridPolygon, column: int, target: int) -> list[list[tuple]]:
    """The column's segments, grouped by top row.

    Entry j lists the segments whose top is the run's j-th row, by
    ascending bottom; each is ``(interval, party_a, party_b, after)``,
    with totals from prefix sums and ``after`` the entry of the row below
    its bottom (the run's length past the last row).  A segment above the
    target population fits no label, and neither does any longer one from
    the same top, so the list stops there.  Every interval tuple is made
    once per column and shared by all the state keys that hold it.
    """
    lo, hi = _column_run(p, column)
    pre_a = [0]
    pre_b = [0]
    for r in range(lo, hi + 1):
        v = p.votes[(r, column)]
        pre_a.append(pre_a[-1] + v.party_a)
        pre_b.append(pre_b[-1] + v.party_b)
    table = []
    for top in range(lo, hi + 1):
        segments = []
        for bottom in range(top, hi + 1):
            a = pre_a[bottom - lo + 1] - pre_a[top - lo]
            b = pre_b[bottom - lo + 1] - pre_b[top - lo]
            if a + b > target:
                break
            segments.append(((top, bottom), a, b, bottom - lo + 1))
        table.append(segments)
    return table


def _successors(
    key: tuple, table: list[list[tuple]], walks: dict[tuple, list[tuple]], kappa: int, target: int
) -> list[tuple]:
    """Successor keys of one state key, with the cuts that produce them.

    Segments are built from the top row down.  Each continues an
    overlapping active label or starts the next unused one, so
    interchangeable labelings are explored once, and a label may take a
    segment only while its population stays within the target.  An
    active label left without a segment finishes, so it must already
    hold the target.

    The walk reads only the key's layout: its active labels' previous
    intervals, indices and room below the target, and the number of labels
    used.  Keys with one layout differ only in their vote totals, so each
    layout is walked once per column, kept in ``walks`` (the column's
    layout -> walk memo), and every key of it gets the same cuts in the
    same order.  Returns ``(successor key, cut)`` pairs, each cut the
    ``((label index, segment), ...)`` record of ``_walk``.
    """
    active = []  # (previous interval, index, room below the target), sorted top to bottom
    base = list(key)  # every active label finished
    used = 0
    for idx, st in enumerate(key):
        if st[2] == ACTIVE:
            active.append((st[3], idx, target - st[0] - st[1]))
            base[idx] = (st[0], st[1], FINISHED, None)
        if st[2] != UNSTARTED:
            used += 1
    active.sort()
    layout = (tuple(active), used)
    cuts = walks.get(layout)
    if cuts is None:
        cuts = walks[layout] = _walk(active, used, table, kappa)
    out = []
    for cut in cuts:
        new = base[:]
        for idx, (interval, a, b, _) in cut:
            st = key[idx]
            new[idx] = (st[0] + a, st[1] + b, ACTIVE, interval)
        out.append((tuple(new), cut))
    return out


def _walk(active: list[tuple], used: int, table: list[list[tuple]], kappa: int) -> list[tuple]:
    """Every way to cut the column for one layout of ``_successors``, each
    as ``((label index, segment), ...)`` top to bottom.

    Continuing labels are taken in the order of their previous intervals.
    Suppose segment s1 lies above s2, s1 continues label I, s2 continues
    label J, and J's interval lies above I's.  The overlaps would need
    J.bottom >= s2.top > s1.bottom >= I.top > J.bottom, which is
    impossible.  So the walk keeps a position in that order: a segment
    may take any later label it overlaps, and a label passed over is
    never taken.  A branch stops as soon as it passes over a label below
    the target, which would be left short.
    """
    n = len(active)
    end = len(table)
    if not table[0]:
        return []  # the top cell alone is above the target
    hi = table[0][0][0][0] + end - 1  # the run's bottom row
    # short[q]: the row by which the first label at or after position q
    # that is still below the target must be taken, its previous bottom
    # row or the run's bottom row, whichever is higher up; past the run
    # when every such label holds the target.
    short = [hi + 1] * (n + 1)
    for q in range(n - 1, -1, -1):
        short[q] = min(active[q][0][1], hi) if active[q][2] else short[q + 1]
    out: list[tuple] = []
    chosen: list[tuple[int, tuple]] = []  # (label index, segment), top to bottom

    def take(label: int, seg: tuple, q: int, next_new: int) -> None:
        chosen.append((label, seg))
        if seg[3] == end:
            out.append(tuple(chosen))
        else:
            walk(seg[3], q, next_new)
        chosen.pop()

    def walk(j: int, q: int, next_new: int) -> None:
        segments = table[j]
        if not segments:
            return
        top = segments[0][0][0]
        while q < n and active[q][0][1] < top:  # above every segment to come
            if active[q][2]:
                return
            q += 1
        for seg in segments:
            interval, a, b, _ = seg
            bottom = interval[1]
            for r in range(q, n):
                prev, idx, room = active[r]
                if prev[0] > bottom:
                    break
                if a + b <= room and short[r + 1] > bottom:
                    take(idx, seg, r + 1, next_new)
                if room:
                    break  # a later label would pass over this one
            if next_new < kappa and short[q] > bottom:
                take(next_new, seg, q, next_new + 1)

    walk(0, 0, used)
    # walk and take refer to each other; clearing walk's cell breaks that
    # cycle, so this frame (table included) goes without the cyclic GC.
    del walk
    return out


def solve_yconvex(p: GridPolygon, kappa: int) -> YConvexResult:
    """Minimum total absolute gap over y-convex kappa-equipartitions.

    Requires every polygon column to be a single run, for every kappa.
    Returns the scaled optimum and a witness partition found by
    backtracking, or a result whose value is None when no y-convex
    equipartition exists.  Every kappa, 1 included, runs the same sweep.
    Frontier keys are expanded in sorted order and the first path to reach
    a key is kept, so the witness is deterministic.
    """
    lo, target = population_window(p.total_votes().population(), kappa)  # checks kappa
    columns = sorted({c for (_, c) in p.votes})
    # Raises on multi-run columns before any state expansion.
    tables = {col: _column_table(p, col, target) for col in columns}
    if kappa > p.size or lo > target:
        return YConvexResult(None, None)

    frontier = [((0, 0, UNSTARTED, None),) * kappa]
    # One dict per column maps each of its state keys to the key before it
    # and the cut between them; its keys are the column's frontier.
    # Identical keys can recur across columns when columns carry no
    # population, so the backpointers are not pooled.
    backs: list[dict[tuple, tuple[tuple, tuple]]] = []
    prev_col = columns[0] - 1

    for col in columns:
        if col != prev_col + 1:
            # Segments only extend into the adjacent column; a gap column
            # admits no transition.
            frontier = []
            break
        table = tables.pop(col)
        walks: dict[tuple, list[tuple]] = {}  # label layout -> its walk, this column only
        prev_col = col
        back: dict[tuple, tuple[tuple, tuple]] = {}
        for key in sorted(frontier):
            for nkey, cut in _successors(key, table, walks, kappa, target):
                if nkey not in back:
                    back[nkey] = (key, cut)
        del table, walks  # not kept alive through the counts and the witness
        backs.append(back)
        frontier = back
        if not frontier:
            break
    # Counted after the sweep, off the kept columns; the start is one key and one vector.
    # Every column's dict is alive here, so a vote vector is one flat tuple, not pairs.
    max_states = max([1, *map(len, backs)])
    max_vectors = max([1, *(len({sum(map(_VOTES, key), ()) for key in back}) for back in backs)])

    # An empty frontier holds no key, so it ends in the one infeasible return.
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
        return YConvexResult(None, None, max_states, max_vectors)

    labels: dict[tuple[int, int], int] = {}
    key = best_key
    for col, back in zip(reversed(columns), reversed(backs)):
        key, cut = back[key]
        for idx, ((top, bottom), *_) in cut:
            for r in range(top, bottom + 1):
                labels[(r, col)] = idx + 1
    return YConvexResult(best_value, GridPartition(labels), max_states, max_vectors)
