"""Two-district solvers built on the t-basic block decomposition.

The grid is tiled by t x t blocks (ragged at the right and bottom) and a
connected spine of boundary cells (the block tree) threads every block.
Normal-form plans put the spine on side 1 and attach, inside each block
interior, connected components that reach side 1 through a single
connector cell.  A reachability table over interior vote totals then
searches all such plans at once; a separate pass covers plans with one
side living entirely inside a single block interior.  Both passes work
on the grid-layout bitmasks of ``grid._MaskIndex``, draw interior
subsets from one table, and pick their plan with one score-then-verify
routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import VoteCounts, district_effgap
from .grid import (
    Cell, GridPartition, GridPolygon, _MaskIndex, _masks_to_partition, population_window,
)

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


def _mask_of(idx: _MaskIndex, cells: Iterable[Cell]) -> int:
    return sum(1 << idx.index[cell] for cell in cells)


def _touching(idx: _MaskIndex, mask: int) -> int:
    """Cells 4-adjacent to some cell of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= idx.adj[low.bit_length() - 1]
    return out


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


def _first_valid(
    idx: _MaskIndex,
    window: tuple[int, int],
    candidates: Iterable[tuple[tuple, int, int, int]],
    counts: PassCounts | None,
    source: str,
) -> CanonicalPlan | None:
    """Score every candidate, then verify them in (value, key) order.

    A candidate is (key, side-1 A votes, side-1 population, side-1 grid
    mask), with side 2 the rest of the grid.  Candidates whose sides fall
    outside the population window are dropped, the rest are sorted by
    (value, key), and both sides are checked for connectivity in that
    order; the first that passes is the plan, which is the smallest key
    among all valid candidates.  Returns None when none passes.
    """
    counts = counts if counts is not None else PassCounts()
    lo, hi = window
    total = idx.votes(idx.full)
    pop = total.population()
    scored = []
    for key, a, n, side1 in candidates:
        counts.candidates += 1
        if lo <= n <= hi and lo <= pop - n <= hi:
            v1 = VoteCounts(a, n - a)
            scored.append((_plan_value(v1, total - v1), key, v1, side1))
    counts.in_window += len(scored)
    scored.sort(key=lambda entry: entry[:2])
    for value, _, v1, side1 in scored:
        counts.checks += 1
        side2 = idx.full & ~side1
        if idx.connected(side1) and idx.connected(side2):
            partition = _masks_to_partition(idx, (side1, side2))
            return CanonicalPlan(partition, value, (v1, total - v1), source)
    return None


SubsetTable = list[tuple[int, int, int]]  # (A votes, population, grid mask) by subset mask


def _subset_tables(idx: _MaskIndex, decomp: BasicDecomposition) -> list[SubsetTable]:
    """Per block, (A votes, population, grid mask) of every interior subset.

    Subset masks number an interior's cells in sorted order, and a table
    is indexed by subset mask: each entry extends the entry without its
    lowest bit by one cell.  An interior above ``MAX_INTERIOR_CELLS``
    raises before any enumeration.
    """
    for ri, (rect, interior) in enumerate(zip(decomp.rects, decomp.interiors)):
        if len(interior) > MAX_INTERIOR_CELLS:
            raise ValueError(
                f"block {ri} (rows {rect.row0}-{rect.row1 - 1}, cols {rect.col0}-{rect.col1 - 1}) "
                f"has {len(interior)} interior cells; subset enumeration allows at most "
                f"{MAX_INTERIOR_CELLS}"
            )
    tables = []
    for interior in decomp.interiors:
        bits = [idx.index[cell] for cell in sorted(interior)]
        table = [(0, 0, 0)]
        for mask in range(1, 1 << len(bits)):
            low = mask & -mask
            i = bits[low.bit_length() - 1]
            a, n, cells = table[mask ^ low]
            table.append((a + idx.party_a[i], n + idx.pop[i], cells | 1 << i))
        tables.append(table)
    return tables


def solve_case1(
    decomp: BasicDecomposition,
    idx: _MaskIndex,
    window: tuple[int, int],
    *,
    counts: PassCounts | None = None,
) -> CanonicalPlan | None:
    """Best plan whose side 1 is a connected subset of one block interior.

    Every non-empty subset is a candidate keyed by (block index, mask),
    and its complement is side 2.  Returns None when no candidate is
    valid; ``counts``, when given, receives the pass's counters.
    """
    candidates = (
        ((ri, mask), a, n, cells)
        for ri, table in enumerate(_subset_tables(idx, decomp))
        for mask, (a, n, cells) in enumerate(table)
        if mask
    )
    return _first_valid(idx, window, candidates, counts, "case1")


# ---------------------------------------------------------------------------
# Reachability table over interior vote totals
# ---------------------------------------------------------------------------

Pair = tuple[int, int]


@dataclass(frozen=True)
class SubsetChoice:
    mask: int  # over the interior's cells in sorted order
    votes: VoteCounts  # of the subset's cells
    added: int  # grid mask: the subset's cells and its connectors
    connectors: int  # grid mask


@dataclass(frozen=True)
class ReachTable:
    """Marked (interior A-votes, interior B-votes) pairs with backpointers.

    (0, 0) is always marked; ``first_marked`` maps every other marked
    pair to (block index, predecessor pair, subset mask) recording the
    earliest way to reach it.
    """

    choices: tuple[tuple[SubsetChoice, ...], ...]
    first_marked: dict[Pair, tuple[int, Pair, int]]


def _subset_choices(
    idx: _MaskIndex, table: SubsetTable, connectable: int
) -> tuple[SubsetChoice, ...]:
    """Valid subsets of one block interior, in ascending mask order.

    A subset qualifies when each of its connected components has a
    connector: a cell adjacent to both the component and the spine
    (``connectable`` holds every non-spine cell next to it).  The smallest
    such cell is recorded per component.
    """
    out = []
    for mask, (a, n, cells) in enumerate(table):
        connectors = 0
        rest = cells
        while rest:
            comp = idx.flood(rest & -rest, rest)
            rest &= ~comp
            touching = _touching(idx, comp) & connectable
            if not touching:
                break
            connectors |= touching & -touching
        else:  # every component has a connector
            out.append(SubsetChoice(mask, VoteCounts(a, n - a), cells | connectors, connectors))
    return tuple(out)


def build_reach_table(decomp: BasicDecomposition, idx: _MaskIndex) -> ReachTable:
    """Mark every achievable interior vote pair, block by block.

    (0, 0) is marked before any block; each block contributes exactly one
    subset choice (possibly empty), so existing marks persist and the
    mark set grows monotonically.  Backpointer ties go to the smallest
    block index, then the smallest subset mask: for one subset choice,
    different predecessor pairs give different new pairs.
    """
    tables = _subset_tables(idx, decomp)
    tree = _mask_of(idx, decomp.tree)
    connectable = _touching(idx, tree) & ~tree
    choices = tuple(_subset_choices(idx, table, connectable) for table in tables)
    marked: set[Pair] = {(0, 0)}
    first_marked: dict[Pair, tuple[int, Pair, int]] = {}
    for ri, block_choices in enumerate(choices):
        additions: dict[Pair, tuple[int, Pair, int]] = {}
        for choice in block_choices:  # ascending mask order
            if choice.mask == 0:
                continue  # empty subset carries marks forward unchanged
            da, db = choice.votes.party_a, choice.votes.party_b
            for pair in marked:
                new_pair = (pair[0] + da, pair[1] + db)
                if new_pair not in marked and new_pair not in additions:
                    additions[new_pair] = (ri, pair, choice.mask)
        first_marked.update(additions)
        marked.update(additions)
    return ReachTable(choices, first_marked)


def _reconstruct_masks(table: ReachTable, pair: Pair, blocks: int) -> list[int]:
    masks = [0] * blocks
    current = pair
    while current != (0, 0):
        ri, prev, mask = table.first_marked[current]
        masks[ri] = mask
        current = prev
    return masks


def solve_canonical(
    decomp: BasicDecomposition,
    idx: _MaskIndex,
    window: tuple[int, int],
    *,
    counts: PassCounts | None = None,
) -> CanonicalPlan | None:
    """Best normal-form plan over all marked interior vote pairs.

    Every marked pair is a candidate keyed by the pair.  Its side 1 is
    the spine plus the chosen subsets and their connectors, so its votes
    are the spine's plus those of the union of the added cells (a
    connector shared by two components counts once).  Returns None when
    no pair is valid; ``counts``, when given, receives the pass's
    counters.
    """
    table = build_reach_table(decomp, idx)
    tree = _mask_of(idx, decomp.tree)
    spine = idx.votes(tree)
    spine_a, spine_pop = spine.party_a, spine.population()
    added = [{c.mask: c.added for c in block} for block in table.choices]

    def candidates():
        for pair in {(0, 0)} | set(table.first_marked):
            mask = 0
            for ri, subset in enumerate(_reconstruct_masks(table, pair, len(decomp.rects))):
                mask |= added[ri][subset]
            v = idx.votes(mask)
            yield pair, spine_a + v.party_a, spine_pop + v.population(), tree | mask

    return _first_valid(idx, window, candidates(), counts, "canonical")


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

    The population window is the near window for two districts at
    nearness epsilon times the maximum cell population, taken as a
    fraction of the total population.  Reports the nearness actually
    achieved and the plan's stability ratio.
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
    window = population_window(pop, 2, delta_bound)

    decomp = build_decomposition(p, t)
    idx = p.mask_index
    passes = {"case1": PassCounts(), "canonical": PassCounts()}
    plans = [
        plan
        for plan in (
            solve_case1(decomp, idx, window, counts=passes["case1"]),
            solve_canonical(decomp, idx, window, counts=passes["canonical"]),
        )
        if plan is not None
    ]
    if not plans:
        raise CanonicalPlanError("no canonical plan in window")
    best = min(plans, key=lambda c: (c.value, c.source))
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
