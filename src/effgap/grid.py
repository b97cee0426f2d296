"""Grid instances: rectilinear polygons, partitions, the exhaustive oracle,
and the adversarial hardness-instance generator.

Cells are (row, col) pairs on an m x n unit grid.  Polygons must be
4-connected and hole-free.  The oracle enumerates every connected
kappa-partition meeting a population mode, so it is the ground truth the
other solvers are checked against; it is only meant for desk-scale
instances (the default cap is 14 cells).

The oracle, the polygon and partition checks and the canonical solver work
on bitmasks laid out like the grid: cell (r, c) is bit r * width + c of the
polygon's bounding box (rows and columns counted from its top-left corner),
so bit order is sorted cell order, a full rectangle numbers its cells
0..m*n-1, and the four neighbours of a set are shifts of its mask by 1 and
by the width.  ``_MaskIndex.flood`` is the one connectivity routine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .core import VoteCounts, ZERO_VOTES, district_effgap

Cell = tuple[int, int]


def neighbors4(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    r, c = cell
    return ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))


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
        total = ZERO_VOTES
        for v in self.votes.values():
            total = total + v
        return total


@dataclass(frozen=True)
class GridPartition:
    """Assignment of every polygon cell to a district label in 1..kappa."""

    labels: Mapping[Cell, int]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str | None = None
    witness: Cell | None = None


class _MaskIndex:
    """Bitmask view of a polygon for fast subset enumeration.

    Cell (r, c) is bit ``(r - top) * width + (c - left)`` of the polygon's
    bounding box, so bits run in sorted cell order and a lowest-bit-first
    loop visits cells in that order.  The per-bit tables read 0 (or None)
    at cells of the box outside the polygon; ``full`` holds the polygon's
    cells, ``box`` the whole box and ``border`` the box's outer ring.
    """

    def __init__(self, p: GridPolygon):
        self.cells = sorted(p.votes)
        self.top = top = min((r for r, _ in self.cells), default=0)
        self.left = left = min((c for _, c in self.cells), default=0)
        self.width = width = max((c for _, c in self.cells), default=left) - left + 1
        height = max((r for r, _ in self.cells), default=top) - top + 1
        self.index = {(r, c): (r - top) * width + c - left for (r, c) in self.cells}
        nbits = height * width
        self.cell_at: list[Cell | None] = [None] * nbits
        self.pop = [0] * nbits
        self.party_a = [0] * nbits
        self.adj = [0] * nbits
        self.full = 0
        for cell, i in self.index.items():
            self.cell_at[i] = cell
            self.pop[i] = p.votes[cell].population()
            self.party_a[i] = p.votes[cell].party_a
            self.full |= 1 << i
            for nb in neighbors4(cell):
                j = self.index.get(nb)
                if j is not None:
                    self.adj[i] |= 1 << j
        first_col = sum(1 << k for k in range(0, nbits, width))
        last_col = first_col << (width - 1)
        first_row = (1 << width) - 1
        self.box = (1 << nbits) - 1
        self.border = first_row | first_row << (nbits - width) | first_col | last_col
        # A shift by one bit moves a cell along its row; these masks drop the
        # cells that would land in the next or previous row instead.
        self.not_first_col = self.box & ~first_col
        self.not_last_col = self.box & ~last_col

    def flood(self, seed: int, within: int) -> int:
        """The cells of `within` 4-connected to a cell of `seed`, a submask of `within`."""
        w = self.width
        into_right = within & self.not_first_col
        into_left = within & self.not_last_col
        comp = frontier = seed
        while frontier:
            frontier = (
                (frontier << 1) & into_right
                | (frontier >> 1) & into_left
                | ((frontier << w) | (frontier >> w)) & within
            ) & ~comp
            comp |= frontier
        return comp

    def connected(self, mask: int) -> bool:
        return mask != 0 and self.flood(mask & -mask, mask) == mask

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


def validate_polygon(p: GridPolygon) -> ValidationReport:
    """Check 4-connectivity and hole-freeness; reports the first violation.

    The witness is the smallest offending cell: the smallest cell not
    reached from the smallest cell, or else the smallest empty cell of the
    bounding box that the box border does not reach through empty cells.
    """
    if not p.votes:
        return ValidationReport(False, "empty", None)
    idx = _MaskIndex(p)
    full = idx.full
    lost = full & ~idx.flood(full & -full, full)
    if lost:
        return ValidationReport(False, "disconnected", idx.cell_at[(lost & -lost).bit_length() - 1])
    # Every empty cell outside the bounding box reaches the grid's outside
    # through empty cells, so a hole is an empty cell of the box that the
    # box border cannot reach.
    empty = idx.box & ~full
    hole = empty & ~idx.flood(empty & idx.border, empty)
    if hole:
        r, c = divmod((hole & -hole).bit_length() - 1, idx.width)
        return ValidationReport(False, "hole", (idx.top + r, idx.left + c))
    return ValidationReport(True)


def _population_bounds(
    total_pop: int, kappa: int, mode: str, delta: Fraction | None
) -> tuple[int, int]:
    """Integer [lo, hi] a district population must satisfy under the mode."""
    if mode == "exact":
        if total_pop % kappa != 0:
            # No integer district population can satisfy exact equality.
            return 1, 0
        target = total_pop // kappa
        return target, target
    if mode == "near":
        if delta is None or delta < 0:
            raise ValueError("near mode needs a non-negative delta")
        lo = Fraction(1, kappa) - delta
        hi = Fraction(1, kappa) + delta
        lo_int = max(0, -(-(lo.numerator * total_pop) // lo.denominator)) if lo > 0 else 0
        hi_frac = hi * total_pop
        hi_int = hi_frac.numerator // hi_frac.denominator
        return lo_int, min(hi_int, total_pop)
    raise ValueError(f"unknown population mode {mode!r}")


def validate_partition(
    p: GridPolygon,
    q: GridPartition,
    kappa: int,
    mode: str = "exact",
    delta: Fraction | None = None,
) -> ValidationReport:
    """Check cover, disjointness, connectivity, label count and populations.

    kappa must satisfy 1 < kappa <= |P|.
    """
    if not 1 < kappa <= p.size:
        raise ValueError(f"kappa must satisfy 1 < kappa <= {p.size}")
    cells = p.cells
    labelled = set(q.labels)
    if labelled != cells:
        missing = cells - labelled
        if missing:
            return ValidationReport(False, "cell not labelled", min(missing))
        return ValidationReport(False, "label for cell outside polygon", min(labelled - cells))
    for cell, lab in q.labels.items():
        if not 1 <= lab <= kappa:
            return ValidationReport(False, f"label {lab} outside 1..{kappa}", cell)
    lo, hi = _population_bounds(p.total_votes().population(), kappa, mode, delta)
    idx = _MaskIndex(p)
    masks = [0] * (kappa + 1)
    for cell, lab in q.labels.items():
        masks[lab] |= 1 << idx.index[cell]
    for lab in range(1, kappa + 1):
        mask = masks[lab]
        if not mask:
            return ValidationReport(False, f"label {lab} empty", None)
        first = idx.cell_at[(mask & -mask).bit_length() - 1]
        if not idx.connected(mask):
            return ValidationReport(False, f"label {lab} disconnected", first)
        pop = idx.votes(mask).population()
        if not lo <= pop <= hi:
            return ValidationReport(
                False, f"label {lab} population {pop} outside [{lo}, {hi}]", first
            )
    return ValidationReport(True)


def partition_vote_totals(p: GridPolygon, q: GridPartition, kappa: int) -> list[VoteCounts]:
    """Per-label vote totals, for feeding the plan-level statistics."""
    totals = [ZERO_VOTES] * kappa
    for cell, lab in q.labels.items():
        totals[lab - 1] = totals[lab - 1] + p.votes[cell]
    return totals


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


class OracleLimitError(ValueError):
    pass


def _connected_submasks(
    idx: _MaskIndex, seed: int, allowed: int, pop_cap: int, whole_rest: bool = False
) -> Iterator[tuple[int, int]]:
    """All connected submasks of `allowed` containing bit `seed`, each once.

    Yields (mask, population) in depth-first pre-order; branches whose
    population already exceeds pop_cap are cut (cell populations are
    non-negative, so growth never shrinks a population).  With
    `whole_rest`, the caller only wants submasks whose complement in
    `allowed` is connected, and subtrees where that can never hold are cut.
    """
    pops, adj, flood = idx.pop, idx.adj, idx.flood
    if whole_rest:
        comp = flood(1 << seed, allowed)
        if comp != allowed:
            # Only the seed's whole component can leave a connected complement.
            pop = idx.votes(comp).population()
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
            # The subtree only takes cells that its candidates reach through
            # free cells; every other cell stays in the complement of every
            # submask below.  If two such fixed cells lie in different
            # components of the current complement, no submask below (this
            # one included) leaves a connected complement.  A connected
            # complement passes after one flood, and a node at the cap has
            # no subtree worth the check.
            rest = allowed & ~new_mask
            comp = flood(rest & -rest, rest)
            if comp != rest:
                fixed = rest & ~flood(child_cand, free)
                if fixed & ~comp and (fixed & comp or fixed & ~flood(fixed & -fixed, rest)):
                    continue
        yield new_mask, new_pop
        stack.append((mask, pop, cand, banned, remaining))
        mask, pop, cand, banned, remaining = new_mask, new_pop, child_cand, child_banned, child_cand


def _enumerate_mask_partitions(
    idx: _MaskIndex, kappa: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """All partitions of the polygon into kappa connected classes whose
    populations lie in [lo, hi].  Classes are canonically ordered by their
    smallest cell, so each partition appears exactly once."""
    if lo > hi or idx.full == 0 or kappa > len(idx.cells):
        return

    def rec(remaining: int, pop_left: int, parts_left: int, acc: tuple[int, ...]):
        if parts_left == 1:
            if lo <= pop_left <= hi and idx.connected(remaining):
                yield acc + (remaining,)
            return
        last = parts_left == 2  # the rest must then be one connected class
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in _connected_submasks(idx, seed, remaining, hi, last):
            if pop < lo:
                continue
            rest_pop = pop_left - pop
            if not (parts_left - 1) * lo <= rest_pop <= (parts_left - 1) * hi:
                continue
            rest = remaining & ~sub
            if rest == 0:
                continue
            if last:
                if idx.connected(rest):
                    yield acc + (sub, rest)
            else:
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


def enumerate_equipartitions(
    p: GridPolygon,
    kappa: int,
    mode: str = "exact",
    delta: Fraction | None = None,
) -> Iterator[GridPartition]:
    """Every connected kappa-partition of `p` meeting the population mode."""
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    idx = _MaskIndex(p)
    lo, hi = _population_bounds(p.total_votes().population(), kappa, mode, delta)
    for masks in _enumerate_mask_partitions(idx, kappa, lo, hi):
        yield _masks_to_partition(idx, masks)


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    value: int | None  # scaled: twice the minimum total absolute gap
    partitions: tuple[GridPartition, ...]  # every argmin


def brute_force_opt(
    p: GridPolygon,
    kappa: int,
    mode: str = "exact",
    delta: Fraction | None = None,
    cell_limit: int = 14,
    window: tuple[int, int] | None = None,
) -> OracleResult:
    """Exhaustive minimum of the total absolute gap over valid partitions.

    Returns the scaled optimum together with every optimal partition, or
    an infeasible result when no valid partition exists.  An explicit
    integer population window overrides the mode.
    """
    if p.size > cell_limit:
        raise OracleLimitError(
            f"instance too large for oracle ({p.size} cells > limit {cell_limit})"
        )
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    idx = _MaskIndex(p)
    if window is not None:
        lo, hi = window
    else:
        lo, hi = _population_bounds(p.total_votes().population(), kappa, mode, delta)
    best: int | None = None
    best_masks: list[tuple[int, ...]] = []
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
            best_masks = [masks]
        elif value == best:
            best_masks.append(masks)
    if best is None:
        return OracleResult(False, None, ())
    return OracleResult(True, best, tuple(_masks_to_partition(idx, m) for m in best_masks))


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("header must be 'm n kappa'")
    rows, cols, kappa = (int(x) for x in head)
    votes: dict[Cell, VoteCounts] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"bad cell line: {ln!r}")
        r, c, a, b = (int(x) for x in parts)
        if (r, c) in votes:
            raise ValueError(f"duplicate cell {(r, c)}")
        votes[(r, c)] = VoteCounts(a, b)
    return GridPolygon(rows, cols, votes), kappa


def write_partition(q: GridPartition) -> str:
    """Partitions are emitted as ``row col label`` lines."""
    lines = [f"{r} {c} {lab}" for (r, c), lab in sorted(q.labels.items())]
    return "\n".join(lines) + "\n"


def read_partition(text: str) -> GridPartition:
    labels: dict[Cell, int] = {}
    for ln in text.splitlines():
        if not ln.strip():
            continue
        r, c, lab = (int(x) for x in ln.split())
        labels[(r, c)] = lab
    return GridPartition(labels)


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

    @property
    def decoy_count(self) -> int:
        return len(self.decoy_cells)


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

    Bitset dynamic program; empty input and odd totals are False.
    """
    if len(values) > 30:
        raise ValueError("subset-sum oracle limited to 30 values")
    if not values:
        return False
    total = sum(values)
    if total % 2 != 0:
        return False
    reachable = 1
    for v in values:
        reachable |= reachable << v
    return bool((reachable >> (total // 2)) & 1)
