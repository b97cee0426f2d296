"""Two-district solvers built on the t-basic block decomposition.

The grid is tiled by t x t blocks (ragged at the right and bottom) and a
connected spine of boundary cells (the block tree) threads every block.
Normal-form plans put the spine on side 1 and attach, inside each block
interior, connected components that reach side 1 through a single
connector cell.  A reachability table over interior vote totals then
searches all such plans at once; a separate pass covers plans with one
side living entirely inside a single block interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import VoteCounts, district_effgap
from .grid import Cell, GridPartition, GridPolygon, _connected, neighbors4

MAX_BLOCK_SIDE = 5  # interior subset enumeration is exponential in t*t
MAX_INTERIOR_CELLS = 16  # ragged last bands can grow an interior past (t - 2)**2


class CanonicalPlanError(ValueError):
    pass


@dataclass(frozen=True)
class BlockRect:
    """Half-open cell range [row0, row1) x [col0, col1)."""

    row0: int
    col0: int
    row1: int
    col1: int

    def cells(self) -> Iterator[Cell]:
        for r in range(self.row0, self.row1):
            for c in range(self.col0, self.col1):
                yield (r, c)


@dataclass(frozen=True)
class BasicDecomposition:
    t: int
    rects: tuple[BlockRect, ...]
    tree: frozenset[Cell]
    interiors: tuple[frozenset[Cell], ...]  # aligned with rects

    def interior_union(self) -> frozenset[Cell]:
        out: set[Cell] = set()
        for interior in self.interiors:
            out |= interior
        return frozenset(out)


def _require_rectangle(p: GridPolygon) -> None:
    if p.size != p.rows * p.cols:
        raise ValueError("this solver requires a full rectangle with no empty cells")


def build_decomposition(p: GridPolygon, t: int) -> BasicDecomposition:
    """Block grid, boundary-cell spine, and block interiors.

    The spine is the left column and top row of the grid plus every
    block's bottom row and right column, with doorway cells left out so
    that its complement stays connected: each right column skips the
    cell below its top (a passage between neighboring block interiors),
    and on grids with several block rows the rightmost column of each
    block row stays intact as a backbone while one bottom-row cell per
    interior wall is opened as a vertical passage.  Interiors are the
    cells at Chebyshev distance at least 2 from the spine, so a one-cell
    ring always separates them from it.
    """
    _require_rectangle(p)
    if t < 3:
        raise ValueError("t must be at least 3")
    m, n = p.rows, p.cols
    row_bands = max(1, m // t)
    col_bands = max(1, n // t)
    rects = []
    for bi in range(row_bands):
        r0 = bi * t
        r1 = (bi + 1) * t if bi < row_bands - 1 else m
        for bj in range(col_bands):
            c0 = bj * t
            c1 = (bj + 1) * t if bj < col_bands - 1 else n
            rects.append(BlockRect(r0, c0, r1, c1))

    tree: set[Cell] = set()
    tree.update((r, 0) for r in range(m))
    tree.update((0, c) for c in range(n))
    for index, rect in enumerate(rects):
        tree.update((rect.row1 - 1, c) for c in range(rect.col0, rect.col1))
        right = rect.col1 - 1
        block_col = index % col_bands
        keep_full = row_bands >= 2 and block_col == col_bands - 1
        skip = None if keep_full else (rect.row0 + 1, right)
        tree.update(
            (r, right) for r in range(rect.row0, rect.row1) if (r, right) != skip
        )
    if row_bands >= 2:
        for bi in range(row_bands - 1):
            rect = rects[bi * col_bands]  # leftmost block of the row
            tree.discard((rect.row1 - 1, rect.col1 - 2))

    near_tree: set[Cell] = set()
    for (r, c) in tree:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                near_tree.add((r + dr, c + dc))
    interiors = tuple(
        frozenset(cell for cell in rect.cells() if cell not in near_tree)
        for rect in rects
    )
    return BasicDecomposition(t, tuple(rects), frozenset(tree), interiors)


def _votes_of(p: GridPolygon, cells: Iterator[Cell] | set[Cell]) -> VoteCounts:
    a = b = 0
    for cell in cells:
        v = p.votes[cell]
        a += v.party_a
        b += v.party_b
    return VoteCounts(a, b)


def _two_district_partition(p: GridPolygon, side1: set[Cell]) -> GridPartition:
    labels = {cell: (1 if cell in side1 else 2) for cell in p.votes}
    return GridPartition(labels)


@dataclass(frozen=True)
class CanonicalPlan:
    partition: GridPartition  # label 1 holds the spine side
    value: int  # scaled total absolute gap
    votes: tuple[VoteCounts, VoteCounts]
    source: str  # "case1" or "canonical"


@dataclass
class PassCounts:
    """Work done by one search pass.

    ``candidates`` counts the plans scored (non-empty interior subsets for
    case1, marked pairs for canonical), ``in_window`` those whose sides
    fall inside the population window, and ``checks`` the connectivity
    checks made in key order, the winner's included.
    """

    candidates: int = 0
    in_window: int = 0
    checks: int = 0


def _plan_value(v1: VoteCounts, v2: VoteCounts) -> int:
    return abs(district_effgap(v1) + district_effgap(v2))


def _require_small_interiors(decomp: BasicDecomposition) -> None:
    for ri, (rect, interior) in enumerate(zip(decomp.rects, decomp.interiors)):
        if len(interior) > MAX_INTERIOR_CELLS:
            raise ValueError(
                f"block {ri} (rows {rect.row0}-{rect.row1 - 1}, cols {rect.col0}-{rect.col1 - 1}) "
                f"has {len(interior)} interior cells; subset enumeration allows at most "
                f"{MAX_INTERIOR_CELLS}"
            )


def solve_case1(
    p: GridPolygon, t: int, window: tuple[int, int], *, counts: PassCounts | None = None
) -> CanonicalPlan | None:
    """Best plan whose side 1 is a connected subset of one block interior.

    Scores first, then verifies: every non-empty subset's votes come from
    a lowest-set-bit recurrence over masks, subsets whose sides fall
    outside the population window are dropped, and the rest are sorted by
    (value, block index, mask).  Connectivity of the subset and of its
    complement is checked in that order, and the first subset that passes
    is the plan.  Returns None when none passes; ``counts``, when given,
    receives the pass's counters.
    """
    _require_rectangle(p)
    if t > MAX_BLOCK_SIDE:
        raise ValueError(f"t={t} too large for subset enumeration; use t <= {MAX_BLOCK_SIDE}")
    decomp = build_decomposition(p, t)
    _require_small_interiors(decomp)
    counts = counts if counts is not None else PassCounts()
    lo, hi = window
    total = p.total_votes()
    pop = total.population()
    blocks = [sorted(interior) for interior in decomp.interiors]
    scored: list[tuple[int, int, int, VoteCounts]] = []
    for ri, cells in enumerate(blocks):
        size = 1 << len(cells)
        counts.candidates += size - 1
        sum_a = [0] * size
        sum_b = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            v = p.votes[cells[low.bit_length() - 1]]
            a = sum_a[mask] = sum_a[mask ^ low] + v.party_a
            b = sum_b[mask] = sum_b[mask ^ low] + v.party_b
            if lo <= a + b <= hi and lo <= pop - a - b <= hi:
                v1 = VoteCounts(a, b)
                v2 = VoteCounts(total.party_a - a, total.party_b - b)
                scored.append((_plan_value(v1, v2), ri, mask, v1))
    counts.in_window += len(scored)
    scored.sort(key=lambda entry: entry[:3])
    everything = set(p.votes)
    for value, ri, mask, v1 in scored:
        counts.checks += 1
        cells = blocks[ri]
        subset = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if _connected(subset) and _connected(everything - subset):
            v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
            return CanonicalPlan(_two_district_partition(p, subset), value, (v1, v2), "case1")
    return None


# ---------------------------------------------------------------------------
# Reachability table over interior vote totals
# ---------------------------------------------------------------------------

Pair = tuple[int, int]


@dataclass(frozen=True)
class SubsetChoice:
    mask: int
    cells: frozenset[Cell]
    votes: VoteCounts
    connectors: frozenset[Cell]


@dataclass(frozen=True)
class ReachTable:
    """Marked (interior A-votes, interior B-votes) pairs with backpointers.

    ``first_marked`` maps a pair to (block index, predecessor pair,
    subset mask) recording the earliest way to reach it; ``layers`` holds
    the cumulative mark sets after each block, so marks only ever grow.
    """

    choices: tuple[tuple[SubsetChoice, ...], ...]
    first_marked: dict[Pair, tuple[int, Pair, int]]
    layers: tuple[frozenset[Pair], ...]


def _subset_choices(
    p: GridPolygon,
    decomp: BasicDecomposition,
    rect_index: int,
    adjacent_to_tree: set[Cell],
) -> tuple[SubsetChoice, ...]:
    """Valid interior subsets of one block, in ascending mask order.

    A subset qualifies when each of its connected components has a
    connector: a cell adjacent to both the component and the spine
    (``adjacent_to_tree`` holds every non-spine cell next to it).  The
    lexicographically smallest such cell is recorded per component.
    """
    interior = sorted(decomp.interiors[rect_index])
    out = []
    for mask in range(1 << len(interior)):
        subset = {interior[i] for i in range(len(interior)) if mask >> i & 1}
        connectors: set[Cell] = set()
        ok = True
        remaining = set(subset)
        while remaining:
            start = remaining.pop()
            comp = {start}
            stack = [start]
            while stack:
                for nb in neighbors4(stack.pop()):
                    if nb in remaining:
                        remaining.discard(nb)
                        comp.add(nb)
                        stack.append(nb)
            candidates = sorted(
                nb
                for cell in comp
                for nb in neighbors4(cell)
                if nb in adjacent_to_tree
            )
            if not candidates:
                ok = False
                break
            connectors.add(candidates[0])
        if not ok:
            continue
        out.append(
            SubsetChoice(mask, frozenset(subset), _votes_of(p, subset), frozenset(connectors))
        )
    return tuple(out)


def build_reach_table(p: GridPolygon, decomp: BasicDecomposition) -> ReachTable:
    """Mark every achievable interior vote pair, block by block.

    (0, 0) is marked before any block; each block contributes exactly one
    subset choice (possibly empty), so existing marks persist and the
    mark set grows monotonically.  Backpointer ties go to the smallest
    block index, then the smallest subset mask, then the smallest
    predecessor pair.
    """
    _require_small_interiors(decomp)
    tree = decomp.tree
    adjacent_to_tree = {
        cell
        for cell in p.votes
        if cell not in tree and any(nb in tree for nb in neighbors4(cell))
    }
    choices = tuple(
        _subset_choices(p, decomp, ri, adjacent_to_tree) for ri in range(len(decomp.rects))
    )
    marked: set[Pair] = {(0, 0)}
    first_marked: dict[Pair, tuple[int, Pair, int]] = {}
    layers = []
    for ri, block_choices in enumerate(choices):
        additions: dict[Pair, tuple[int, Pair, int]] = {}
        ordered = sorted(marked)  # marked only grows between blocks
        for choice in block_choices:  # ascending mask order
            if choice.mask == 0:
                continue  # empty subset carries marks forward unchanged
            da, db = choice.votes.party_a, choice.votes.party_b
            for pair in ordered:
                new_pair = (pair[0] + da, pair[1] + db)
                if new_pair not in marked and new_pair not in additions:
                    additions[new_pair] = (ri, pair, choice.mask)
        first_marked.update(additions)
        marked.update(additions)
        layers.append(frozenset(marked))
    return ReachTable(choices, first_marked, tuple(layers))


def _reconstruct_masks(table: ReachTable, pair: Pair, blocks: int) -> list[int]:
    masks = [0] * blocks
    current = pair
    while current != (0, 0):
        ri, prev, mask = table.first_marked[current]
        masks[ri] = mask
        current = prev
    return masks


def solve_canonical(
    p: GridPolygon, t: int, window: tuple[int, int], *, counts: PassCounts | None = None
) -> CanonicalPlan:
    """Best normal-form plan over all marked interior vote pairs.

    Scores first, then verifies.  Side 1 of a marked pair is the spine
    plus the chosen subsets and their connectors, so its votes are the
    spine's plus those of the union of the added cells (a connector
    shared by two components counts once).  Pairs whose sides fall
    outside the population window are dropped, the rest are sorted by
    (value, pair), and connectivity of both sides is checked in that
    order; the first pair that passes is the plan, which is the smallest
    key among all valid pairs.  Raises when none passes; ``counts``, when
    given, receives the pass's counters.
    """
    _require_rectangle(p)
    if t > MAX_BLOCK_SIDE:
        raise ValueError(f"t={t} too large for subset enumeration; use t <= {MAX_BLOCK_SIDE}")
    decomp = build_decomposition(p, t)
    table = build_reach_table(p, decomp)
    counts = counts if counts is not None else PassCounts()
    lo, hi = window
    total = p.total_votes()
    pop = total.population()
    spine = _votes_of(p, decomp.tree)
    added = [{c.mask: c.cells | c.connectors for c in block} for block in table.choices]

    def added_cells(pair: Pair) -> set[Cell]:
        cells: set[Cell] = set()
        for ri, mask in enumerate(_reconstruct_masks(table, pair, len(decomp.rects))):
            if mask:
                cells |= added[ri][mask]
        return cells

    pairs = {(0, 0)} | set(table.first_marked)
    counts.candidates += len(pairs)
    scored: list[tuple[int, Pair, VoteCounts]] = []
    for pair in pairs:
        v1 = spine + _votes_of(p, added_cells(pair))
        pop1 = v1.population()
        if not (lo <= pop1 <= hi and lo <= pop - pop1 <= hi):
            continue
        v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
        scored.append((_plan_value(v1, v2), pair, v1))
    counts.in_window += len(scored)
    scored.sort(key=lambda entry: entry[:2])
    everything = set(p.votes)
    for value, pair, v1 in scored:
        counts.checks += 1
        side1 = decomp.tree | added_cells(pair)
        side2 = everything - side1
        if side2 and _connected(side1) and _connected(side2):
            v2 = VoteCounts(total.party_a - v1.party_a, total.party_b - v1.party_b)
            return CanonicalPlan(_two_district_partition(p, side1), value, (v1, v2), "canonical")
    raise CanonicalPlanError("no canonical plan in window")


@dataclass(frozen=True)
class StableResult:
    plan: CanonicalPlan
    t: int
    window: tuple[int, int]
    delta_bound: Fraction
    delta_achieved: Fraction
    stability: Fraction | None  # min district gap / population, None on empty pops
    passes: dict[str, PassCounts]  # keyed by plan source


def solve_two_near_stable(
    p: GridPolygon, epsilon: Fraction, max_cell_pop: int | None = None
) -> StableResult:
    """Run both searches at block side ceil(1/epsilon), keep the better plan.

    The population window half-width is epsilon times the maximum cell
    population (as a fraction of total population, clipped to [0, 1/2]).
    Reports the nearness actually achieved and the plan's stability
    ratio.
    """
    _require_rectangle(p)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # ceil(1 / epsilon), floored at the smallest meaningful block side.
    t = max(3, -(-epsilon.denominator // epsilon.numerator))
    if t > MAX_BLOCK_SIDE:
        raise ValueError(
            f"epsilon={epsilon} needs block side {t} > {MAX_BLOCK_SIDE}; choose a larger epsilon"
        )
    if max_cell_pop is None:
        max_cell_pop = max(v.population() for v in p.votes.values())
    pop = p.total_votes().population()
    delta_bound = epsilon * max_cell_pop
    half_width = min(delta_bound, Fraction(1, 2))
    lo_frac = (Fraction(1, 2) - half_width) * pop
    hi_frac = (Fraction(1, 2) + half_width) * pop
    lo = max(0, -(-lo_frac.numerator // lo_frac.denominator))
    hi = min(pop, hi_frac.numerator // hi_frac.denominator)
    window = (lo, hi)

    passes = {"case1": PassCounts(), "canonical": PassCounts()}
    candidates: list[CanonicalPlan] = []
    plan1 = solve_case1(p, t, window, counts=passes["case1"])
    if plan1 is not None:
        candidates.append(plan1)
    try:
        candidates.append(solve_canonical(p, t, window, counts=passes["canonical"]))
    except CanonicalPlanError:
        pass
    if not candidates:
        raise CanonicalPlanError("no canonical plan in window")
    best = min(candidates, key=lambda c: (c.value, c.source))
    pops = [v.population() for v in best.votes]
    if pop == 0:
        delta_achieved = Fraction(0)
    else:
        delta_achieved = max(abs(Fraction(q, pop) - Fraction(1, 2)) for q in pops)
    if all(q > 0 for q in pops):
        stability = min(
            Fraction(district_effgap(v), 2 * v.population()) for v in best.votes
        )
    else:
        stability = None
    return StableResult(best, t, window, delta_bound, delta_achieved, stability, passes)
