"""Grid instances: rectilinear polygons, partitions, the exhaustive oracle,
and the adversarial hardness-instance generator.

Cells are (row, col) pairs on an m x n unit grid.  Polygons must be
4-connected and hole-free.  A population constraint is one integer window
[lo, hi] on every district's population, from ``population_window``:
exact (total / kappa) unless a slack delta is given.  The oracle
enumerates every connected kappa-partition inside a window, so it is the
ground truth the other solvers are checked against; it is only meant for
desk-scale instances (the default cap is ``ORACLE_CELL_LIMIT`` cells).

The oracle, the polygon and partition checks and the canonical solver work
on the bitmasks of ``_MaskIndex``, which takes its node tables in bit
order: each node's key, party-A votes, population and neighbours' mask,
``adj``.  ``_MaskIndex.flood`` reads only ``adj``, and it is the one
connectivity routine.  Bit i is the i-th node in sorted order, for a
polygon's cells as for a county graph's nodes, so a lowest-bit-first loop
visits cells in sorted order and a full rectangle numbers its cells
0..m*n-1.  The hole check floods an index of the bounding box's empty
cells.  The oracle's enumeration and scoring, ``_optimum``, run as well
on an index built from a county graph.  The enumeration walks each
distinct two-class remainder once per call and replays its splits when
the earlier classes leave it again; that walk cuts every branch whose
submasks would have to take in more of a cut-off part of the complement
than the population cap allows.  From kappa 3 on, one call memoises the
lowest-bit component of each complement that the walks' take-in check
and the last class's test flood, so each is flooded once; the memo lives
as long as the call.  The oracle keeps its argmins as class masks,
converting them to partitions only when they are read.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .core import Report, VoteCounts, ZERO_VOTES, district_effgap

Cell = tuple[int, int]


@dataclass(frozen=True)
class GridPolygon:
    """A rectilinear polygon on an m x n grid with per-cell vote counts."""

    rows: int
    cols: int
    votes: Mapping[Cell, VoteCounts]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        for (r, c) in self.votes:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"cell {(r, c)} outside the {self.rows}x{self.cols} grid")

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self.votes)

    @property
    def size(self) -> int:
        return len(self.votes)

    def total_votes(self) -> VoteCounts:
        return sum(self.votes.values(), ZERO_VOTES)

    @functools.cached_property
    def mask_index(self) -> "_MaskIndex":
        """``_MaskIndex.of_polygon(self)``, built once per polygon."""
        return _MaskIndex.of_polygon(self)


@dataclass(frozen=True)
class GridPartition:
    """Assignment of every polygon cell to a district label in 1..kappa."""

    labels: Mapping[Cell, int]


_BIT = (1).__lshift__  # _BIT(i) is the mask of bit i


class _MaskIndex:
    """Bitmask view of a node set with an adjacency, for fast subset enumeration.

    The tables run in bit order: bit i stands for the node ``cell_at[i]``,
    with ``party_a[i]`` party-A votes, population ``pop[i]`` and the mask
    ``adj[i]`` of its neighbours.  ``index`` maps each key to its bit and
    ``full`` holds every bit.  A county graph's index is
    ``_MaskIndex(graph.nodes, graph.node_a, graph.node_pop, graph.adj)``; a
    polygon's comes from ``of_polygon`` and is cached as
    ``GridPolygon.mask_index``.
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        party_a: Sequence[int],
        pop: Sequence[int],
        adj: Sequence[Iterable[int]],
    ):
        self.cell_at = list(keys)
        self.index = {key: i for i, key in enumerate(self.cell_at)}
        self.full = (1 << len(self.cell_at)) - 1
        self.party_a = party_a
        self.pop = pop
        self.adj = [sum(map(_BIT, nbs)) for nbs in adj]

    @classmethod
    def of_polygon(cls, p: GridPolygon) -> "_MaskIndex":
        """The polygon's index: bit i is its i-th cell in sorted order, and
        each cell's neighbours are its 4-neighbours in the polygon."""
        cells = sorted(p.votes)
        bit = {cell: i for i, cell in enumerate(cells)}
        adj = [[bit[nb] for nb in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)) if nb in bit] for r, c in cells]
        votes = [p.votes[cell] for cell in cells]
        return cls(cells, [v.party_a for v in votes], [v.population() for v in votes], adj)

    def flood(self, seed: int, within: int) -> int:
        """`seed` and the bits of `within` it reaches through bits of `within`."""
        adj = self.adj
        comp = frontier = seed
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & within & ~comp
            comp |= frontier
        return comp

    def low_component(self, mask: int) -> int:
        """The bits of `mask` that its lowest bit reaches through `mask`."""
        return self.flood(mask & -mask, mask)

    def connected(self, mask: int) -> bool:
        return mask != 0 and self.low_component(mask) == mask

    def population(self, mask: int) -> int:
        """Population of the cells of `mask`."""
        pops = self.pop
        pop = 0
        while mask:
            low = mask & -mask
            mask ^= low
            pop += pops[low.bit_length() - 1]
        return pop

    def votes(self, mask: int) -> VoteCounts:
        """Vote totals of the cells of `mask`."""
        party_a, pops = self.party_a, self.pop
        a = pop = 0
        while mask:
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            a += party_a[i]
            pop += pops[i]
        return VoteCounts(a, pop - a)


def validate_polygon(p: GridPolygon) -> Report:
    """Check 4-connectivity and hole-freeness; reports the first violation.

    The witness is the smallest offending cell: the smallest cell not
    reached from the smallest cell, or else the smallest empty cell of the
    bounding box that the box border does not reach through empty cells.
    The second check floods an index of the box's empty cells alone.
    """
    if not p.votes:
        return Report(False, "empty")
    idx = p.mask_index
    full = idx.full
    lost = full & ~idx.flood(full & -full, full)
    if lost:
        return Report(False, "disconnected", idx.cell_at[(lost & -lost).bit_length() - 1])
    # Every empty cell outside the bounding box reaches the grid's outside
    # through empty cells, so a hole is an empty cell of the box that the
    # box border cannot reach.
    cells = idx.cell_at  # in sorted order
    top, bottom = cells[0][0], cells[-1][0]
    left, right = min(c for _, c in cells), max(c for _, c in cells)
    empty = {
        (r, c): ZERO_VOTES
        for r in range(top, bottom + 1)
        for c in range(left, right + 1)
        if (r, c) not in p.votes
    }
    if empty:
        gaps = _MaskIndex.of_polygon(GridPolygon(p.rows, p.cols, empty))
        border = sum(1 << i for i, (r, c) in enumerate(gaps.cell_at) if r in (top, bottom) or c in (left, right))
        hole = gaps.full & ~gaps.flood(border, gaps.full)
        if hole:
            return Report(False, "hole", gaps.cell_at[(hole & -hole).bit_length() - 1])
    return Report(True)


def population_window(total_pop: int, kappa: int, delta: Fraction | None = None) -> tuple[int, int]:
    """Integer [lo, hi] every district population must lie in.

    With no delta the split is exact: the window is total_pop / kappa
    alone, or the empty (1, 0) when kappa does not divide the total.  A
    delta gives the near window from (1/kappa - delta) * total_pop to
    (1/kappa + delta) * total_pop, rounded inward and clipped to
    [0, total_pop].
    """
    if kappa < 1:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if delta is None:
        if total_pop % kappa:
            return 1, 0
        return total_pop // kappa, total_pop // kappa
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    lo = (Fraction(1, kappa) - delta) * total_pop
    hi = (Fraction(1, kappa) + delta) * total_pop
    return max(0, math.ceil(lo)), min(total_pop, math.floor(hi))


def validate_partition(
    p: GridPolygon, q: GridPartition, kappa: int, window: tuple[int, int] | None = None
) -> Report:
    """Check cover, disjointness, connectivity, label count and populations.

    kappa must satisfy 1 <= kappa <= |P|; the population window defaults
    to the exact one.
    """
    if not 1 <= kappa <= p.size:
        raise ValueError(f"kappa must satisfy 1 <= kappa <= {p.size}")
    cells = p.cells
    labelled = set(q.labels)
    if labelled != cells:
        missing = cells - labelled
        if missing:
            return Report(False, "cell not labelled", min(missing))
        return Report(False, "label for cell outside polygon", min(labelled - cells))
    for cell, lab in q.labels.items():
        if not 1 <= lab <= kappa:
            return Report(False, f"label {lab} outside 1..{kappa}", cell)
    lo, hi = window or population_window(p.total_votes().population(), kappa)
    idx = p.mask_index
    masks = [0] * (kappa + 1)
    for cell, lab in q.labels.items():
        masks[lab] |= 1 << idx.index[cell]
    for lab in range(1, kappa + 1):
        mask = masks[lab]
        if not mask:
            return Report(False, f"label {lab} empty")
        first = idx.cell_at[(mask & -mask).bit_length() - 1]
        if not idx.connected(mask):
            return Report(False, f"label {lab} disconnected", first)
        pop = idx.population(mask)
        if not lo <= pop <= hi:
            return Report(
                False, f"label {lab} population {pop} outside [{lo}, {hi}]", first
            )
    return Report(True)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


# The oracle's default cap on an instance's cells; the CLI's --oracle-limit default.
ORACLE_CELL_LIMIT = 14


class OracleLimitError(ValueError):
    pass


def _connected_submasks(
    idx: _MaskIndex,
    seed: int,
    allowed: int,
    pop_cap: int,
    whole_rest: bool = False,
    low_comp: Callable[[int], int] | None = None,
) -> Iterator[tuple[int, int]]:
    """All connected submasks of `allowed` containing bit `seed`, each once.

    Yields (mask, population) in depth-first pre-order; branches whose
    population already exceeds pop_cap are cut (cell populations are
    non-negative, so growth never shrinks a population).  With
    `whole_rest`, the caller only wants submasks whose complement in
    `allowed` is connected, and subtrees where that can never hold are cut.
    Below a node, a submask can take only the cells its candidates reach
    through free cells; the rest of the complement is fixed.  When the
    complement is split, a connected complement below must lie in the
    component K that holds the fixed cells, so each submask below takes
    in the whole complement outside K.  A subtree is cut when the fixed
    cells span two components, or when taking in the rest outside K
    would pass pop_cap.  The walk order of what is kept does not change.
    The take-in check finds a complement's component with ``low_comp``,
    ``idx.low_component`` or a caller's memo of it.
    """
    pops, adj, flood = idx.pop, idx.adj, idx.flood
    low_comp = low_comp or idx.low_component
    if whole_rest:
        comp = flood(1 << seed, allowed)
        if comp != allowed:
            # Only the seed's whole component can leave a connected complement.
            pop = idx.population(comp)
            if pop <= pop_cap:
                yield comp, pop
            return
    stack: list[tuple[int, int, int, int, int]] = []
    # The walk starts at a virtual root whose only candidate is the seed.
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
        new_pop = pop + pops[i]
        if new_pop > pop_cap:
            continue
        # Candidates already offered at this node are excluded from the
        # branch that includes `bit`, which makes each subset unique.
        child_banned = banned | (cand ^ remaining ^ bit)
        new_mask = mask | bit
        free = allowed & ~(new_mask | child_banned)
        child_cand = remaining | adj[i] & free
        if whole_rest and new_pop < pop_cap:
            # The take-in cut of the docstring; this node, whose complement
            # is disconnected, is no loss.  A connected complement passes
            # after one flood, and a node at the cap has no subtree worth
            # the check.
            rest = allowed & ~new_mask
            comp = low_comp(rest)
            if comp != rest:
                fixed = rest & ~flood(child_cand, free)
                if fixed:
                    keep = comp if fixed & comp else flood(fixed & -fixed, rest)
                    if fixed & ~keep or idx.population(rest & ~keep) > pop_cap - new_pop:
                        continue
        yield new_mask, new_pop
        stack.append((mask, pop, cand, banned, remaining))
        mask, pop, cand, banned, remaining = new_mask, new_pop, child_cand, child_banned, child_cand


def _enumerate_mask_partitions(
    idx: _MaskIndex, kappa: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """All partitions of the index's nodes into kappa connected classes whose
    populations lie in [lo, hi].  Classes are canonically ordered by their
    lowest bit, so each partition appears exactly once.

    The last two classes split a remainder that depends only on the classes
    before them, and different choices of those classes often leave the
    same remainder: on a 5x5 grid at kappa 5, 4,775 two-class levels see
    1,945 distinct remainders.  The valid splits of each remainder, a list
    of (class, rest) pairs in walk order, are found once per call and
    replayed.  Below kappa 4 one class comes before the split, so every
    remainder is new and nothing is kept.

    From kappa 3 on, the complements that the walks' take-in check and the
    last class's test flood recur too, across remainders: at kappa 3 on a
    4x6 grid, 14,838 such floods see 7,870 distinct masks.  Their
    lowest-bit components are memoised for the call.  At kappa 2 the one
    walk never tests a complement twice, so nothing is kept.
    """
    if lo > hi or idx.full == 0 or kappa > len(idx.index):
        return
    splits: dict[int, list[tuple[int, int]]] = {}  # remainder -> its valid two-class splits
    low_comp = functools.cache(idx.low_component) if kappa > 2 else idx.low_component

    def two_classes(remaining: int, pop_left: int) -> Iterator[tuple[int, int]]:
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in _connected_submasks(idx, seed, remaining, hi, True, low_comp):
            if lo <= pop and lo <= pop_left - pop <= hi:
                rest = remaining & ~sub
                if rest and low_comp(rest) == rest:
                    yield sub, rest

    def rec(remaining: int, pop_left: int, parts_left: int, acc: tuple[int, ...]):
        if parts_left == 1:
            if lo <= pop_left <= hi and idx.connected(remaining):
                yield acc + (remaining,)
            return
        if parts_left == 2:
            # pop_left is the remainder's population, so the splits depend
            # on the remainder alone.
            if len(acc) < 2:  # at most one class before it: this remainder cannot recur
                pairs = two_classes(remaining, pop_left)
            else:
                pairs = splits.get(remaining)
                if pairs is None:
                    pairs = splits[remaining] = list(two_classes(remaining, pop_left))
            for sub, rest in pairs:
                yield acc + (sub, rest)
            return
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in _connected_submasks(idx, seed, remaining, hi):
            if pop < lo:
                continue
            rest_pop = pop_left - pop
            if not (parts_left - 1) * lo <= rest_pop <= (parts_left - 1) * hi:
                continue
            rest = remaining & ~sub
            if rest:
                yield from rec(rest, rest_pop, parts_left - 1, acc + (sub,))

    yield from rec(idx.full, sum(idx.pop), kappa, ())


def _masks_to_partition(idx: _MaskIndex, masks: Sequence[int]) -> GridPartition:
    labels: dict[Cell, int] = {}
    for lab, mask in enumerate(masks, start=1):
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            labels[idx.cell_at[bit.bit_length() - 1]] = lab
    return GridPartition(labels)


def _optimum(
    idx: _MaskIndex, kappa: int, lo: int, hi: int
) -> tuple[int | None, list[tuple[int, ...]]]:
    """The scaled minimum total absolute gap over the index's kappa-partitions
    with populations in [lo, hi], and every partition (as class masks) that
    attains it; (None, []) when there is none."""
    best: int | None = None
    argmin: list[tuple[int, ...]] = []
    gaps: dict[int, int] = {}  # class mask -> its scaled signed gap
    for masks in _enumerate_mask_partitions(idx, kappa, lo, hi):
        signed = 0
        for mask in masks:
            gap = gaps.get(mask)
            if gap is None:
                gap = gaps[mask] = district_effgap(idx.votes(mask))
            signed += gap
        value = abs(signed)
        if best is None or value < best:
            best = value
            argmin = [masks]
        elif value == best:
            argmin.append(masks)
    return best, argmin


@dataclass(frozen=True)
class OracleResult:
    """The oracle's optimum; ``optima`` holds every argmin as class masks
    of ``index``, in enumeration order.  ``partitions``, the same argmins as
    ``GridPartition`` objects, is built on first access.  An infeasible
    result has ``value`` None and no optima."""

    value: int | None  # scaled: twice the minimum total absolute gap
    optima: tuple[tuple[int, ...], ...] = ()
    index: _MaskIndex | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def partitions(self) -> tuple[GridPartition, ...]:  # every argmin
        return tuple(_masks_to_partition(self.index, masks) for masks in self.optima)


def brute_force_opt(
    p: GridPolygon, kappa: int, window: tuple[int, int] | None = None, cell_limit: int = ORACLE_CELL_LIMIT
) -> OracleResult:
    """Exhaustive minimum of the total absolute gap over valid partitions.

    Returns the scaled optimum together with every optimal partition, or
    a result whose value is None when no partition has every population
    inside the window (by default the exact one).  The optimal partitions
    are kept as class masks; ``OracleResult.partitions`` converts them
    when first read.  An instance above ``cell_limit`` cells raises
    ``OracleLimitError``, a ``ValueError``.
    """
    if p.size > cell_limit:
        raise OracleLimitError(
            f"instance too large for oracle ({p.size} cells > limit {cell_limit})"
        )
    exact = population_window(p.total_votes().population(), kappa)  # checks kappa
    lo, hi = window or exact
    idx = p.mask_index
    best, argmin = _optimum(idx, kappa, lo, hi)
    return OracleResult(best, tuple(argmin), idx)


# ---------------------------------------------------------------------------
# Instance file format
# ---------------------------------------------------------------------------


def write_instance(p: GridPolygon, kappa: int) -> str:
    """Canonical text form: header ``m n kappa`` then ``row col a b`` lines."""
    lines = [f"{p.rows} {p.cols} {kappa}"]
    for (r, c) in sorted(p.votes):
        v = p.votes[(r, c)]
        lines.append(f"{r} {c} {v.party_a} {v.party_b}")
    return "\n".join(lines) + "\n"


def read_instance(text: str) -> tuple[GridPolygon, int]:
    """The polygon and kappa of ``write_instance``'s text form.

    Blank lines are skipped.  An error in a line names it as ``line N``,
    N counting every line from 1, blank ones included.
    """
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    (no, head), *cell_lines = lines
    votes: dict[Cell, VoteCounts] = {}
    try:
        if len(head) != 3:
            raise ValueError("header must be 'm n kappa'")
        rows, cols, kappa = map(int, head)
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        for no, fields in cell_lines:
            if len(fields) != 4:
                raise ValueError(f"expected 4 fields 'row col a b', got {len(fields)}")
            r, c, a, b = map(int, fields)
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"cell {(r, c)} outside the {rows}x{cols} grid")
            if (r, c) in votes:
                raise ValueError(f"duplicate cell {(r, c)}")
            votes[(r, c)] = VoteCounts(a, b)
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from exc
    return GridPolygon(rows, cols, votes), kappa


def write_partition(q: GridPartition) -> str:
    """Partitions are emitted as ``row col label`` lines."""
    lines = [f"{r} {c} {lab}" for (r, c), lab in sorted(q.labels.items())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Hardness-instance generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardnessInstance:
    """A grid instance whose optimum encodes an integer-partition question.

    The core is a 3 x (n+1) rectangle: two heavy cells of half the value
    total sit at (0,0) (all A voters) and (0,2) (all B voters), the j-th
    input value occupies (1,j) split evenly between the parties, and all
    other cells are empty.  Each decoy cell carries the full value total
    with a 3/4 party-A share, so its own gap is zero.  Decoys attach as a
    strip off the all-A heavy corner, touching only that cell and each
    other; since any companion cell would overshoot the district
    population, every valid equipartition isolates each decoy.
    """

    polygon: GridPolygon
    kappa: int
    values_total: int  # sum of the generator's input values
    decoy_cells: tuple[Cell, ...] = field(default=())


def gen_hardness_instance(
    values: Sequence[int], decoy_count: int = 0, seed: int = 0
) -> HardnessInstance:
    """Build the reduction gadget for a list of positive integers.

    Every value must be divisible by 4 so the constructed cells stay
    integral.  The decoy strip runs left of or above the all-A heavy
    corner (orientation chosen by the seed), keeping the layout
    deterministic, hole-free, and free of decoy-to-empty-cell contact.
    """
    if not values:
        raise ValueError("need at least one value")
    if decoy_count < 0:
        raise ValueError("decoy_count must be non-negative")
    for v in values:
        if v <= 0:
            raise ValueError("values must be positive integers")
        if v % 4 != 0:
            raise ValueError(f"value {v} not divisible by 4; scale inputs by 4")
    n = len(values)
    total = sum(values)
    horizontal = random.Random(seed).randrange(2) == 0
    row_off = 0 if horizontal else decoy_count
    col_off = decoy_count if horizontal else 0

    votes: dict[Cell, VoteCounts] = {}
    for r in range(3):
        for c in range(n + 1):
            votes[(r + row_off, c + col_off)] = ZERO_VOTES
    votes[(row_off, col_off)] = VoteCounts(total // 2, 0)
    # A single value yields a 3x2 core whose second heavy cell lives at
    # the rightmost top cell instead of column 2.
    second_col = 2 if n + 1 > 2 else 1
    votes[(row_off, col_off + second_col)] = VoteCounts(0, total // 2)
    for j, v in enumerate(values):
        votes[(1 + row_off, j + col_off)] = VoteCounts(v // 2, v // 2)
    decoys = []
    for d in range(decoy_count):
        cell = (row_off, d) if horizontal else (d, col_off)
        votes[cell] = VoteCounts(3 * total // 4, total // 4)
        decoys.append(cell)
    polygon = GridPolygon(3 + row_off, n + 1 + col_off, votes)
    return HardnessInstance(polygon, 2 + decoy_count, total, tuple(decoys))


def subset_sum_oracle(values: Sequence[int]) -> bool:
    """True iff some subset of the values sums to half their total.

    Bitset dynamic program, whose cost grows with the values' total,
    not their count; empty input and odd totals are False.
    """
    if not values:
        return False
    total = sum(values)
    if total % 2 != 0:
        return False
    reachable = 1
    for v in values:
        reachable |= reachable << v
    return bool((reachable >> (total // 2)) & 1)
