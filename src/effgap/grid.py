"""Grid instances: rectilinear polygons, partitions, the exhaustive oracle,
and the adversarial hardness-instance generator.

Cells are (row, col) pairs on an m x n unit grid.  Polygons must be
4-connected and hole-free.  The oracle enumerates every connected
kappa-partition meeting a population mode, so it is the ground truth the
other solvers are checked against; it is only meant for desk-scale
instances (the default cap is 14 cells).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import VoteCounts, ZERO_VOTES

Cell = tuple[int, int]

_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


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

    def label_cells(self, label: int) -> set[Cell]:
        return {cell for cell, lab in self.labels.items() if lab == label}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str | None = None
    witness: Cell | None = None


def _connected(cells: Iterable[Cell]) -> bool:
    cells = set(cells)
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors4(stack.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == cells


def validate_polygon(p: GridPolygon) -> ValidationReport:
    """Check 4-connectivity and hole-freeness; reports the first violation."""
    cells = p.cells
    if not cells:
        return ValidationReport(False, "empty", None)
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors4(stack.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != cells:
        return ValidationReport(False, "disconnected", min(cells - seen))
    # Holes: the complement within a one-cell frame around the grid must
    # be a single 4-connected region reachable from the frame corner.
    comp_seen: set[Cell] = set()
    frame_start = (-1, -1)
    stack = [frame_start]
    comp_seen.add(frame_start)
    while stack:
        for nb in neighbors4(stack.pop()):
            r, c = nb
            if -1 <= r <= p.rows and -1 <= c <= p.cols and nb not in cells and nb not in comp_seen:
                comp_seen.add(nb)
                stack.append(nb)
    for r in range(p.rows):
        for c in range(p.cols):
            if (r, c) not in cells and (r, c) not in comp_seen:
                return ValidationReport(False, "hole", (r, c))
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
    for lab in range(1, kappa + 1):
        members = q.label_cells(lab)
        if not members:
            return ValidationReport(False, f"label {lab} empty", None)
        if not _connected(members):
            return ValidationReport(False, f"label {lab} disconnected", min(members))
        pop = sum(p.votes[c].population() for c in members)
        if not lo <= pop <= hi:
            return ValidationReport(
                False, f"label {lab} population {pop} outside [{lo}, {hi}]", min(members)
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


class _MaskIndex:
    """Bitmask view of a polygon for fast subset enumeration."""

    def __init__(self, p: GridPolygon):
        self.cells = sorted(p.votes)
        self.index = {cell: i for i, cell in enumerate(self.cells)}
        self.pop = [p.votes[c].population() for c in self.cells]
        self.party_a = [p.votes[c].party_a for c in self.cells]
        self.adj = [0] * len(self.cells)
        for cell, i in self.index.items():
            for nb in neighbors4(cell):
                j = self.index.get(nb)
                if j is not None:
                    self.adj[i] |= 1 << j

    def connected(self, mask: int) -> bool:
        if mask == 0:
            return False
        comp = mask & -mask
        while True:
            grown = comp
            m = comp
            while m:
                bit = m & -m
                m ^= bit
                grown |= self.adj[bit.bit_length() - 1]
            grown &= mask
            if grown == comp:
                return comp == mask
            comp = grown

    def mask_pop(self, mask: int) -> int:
        total = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            total += self.pop[bit.bit_length() - 1]
        return total


def _connected_submasks(
    idx: _MaskIndex, seed: int, allowed: int, pop_cap: int
) -> Iterator[tuple[int, int]]:
    """All connected submasks of `allowed` containing bit `seed`, each once.

    Yields (mask, population); branches whose population already exceeds
    pop_cap are cut (cell populations are non-negative, so growth never
    shrinks a population).
    """
    seed_bit = 1 << seed
    seed_pop = idx.pop[seed]
    if seed_pop > pop_cap:
        return

    def rec(mask: int, pop: int, cand: int, banned: int) -> Iterator[tuple[int, int]]:
        yield mask, pop
        remaining = cand
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            i = bit.bit_length() - 1
            new_pop = pop + idx.pop[i]
            if new_pop > pop_cap:
                continue
            # Candidates already offered in this loop are excluded from the
            # branch that includes `bit`, which makes each subset unique.
            child_banned = banned | (cand & ~remaining & ~bit)
            new_mask = mask | bit
            child_cand = (remaining | (idx.adj[i] & allowed)) & ~new_mask & ~child_banned
            yield from rec(new_mask, new_pop, child_cand, child_banned)

    yield from rec(seed_bit, seed_pop, idx.adj[seed] & allowed & ~seed_bit, 0)


def _enumerate_mask_partitions(
    idx: _MaskIndex, kappa: int, lo: int, hi: int
) -> Iterator[tuple[int, ...]]:
    """All partitions of the polygon into kappa connected classes whose
    populations lie in [lo, hi].  Classes are canonically ordered by their
    smallest cell, so each partition appears exactly once."""
    full = (1 << len(idx.cells)) - 1
    total_pop = sum(idx.pop)
    if lo > hi:
        return

    def rec(remaining: int, pop_left: int, parts_left: int, acc: tuple[int, ...]):
        if parts_left == 1:
            if lo <= pop_left <= hi and idx.connected(remaining):
                yield acc + (remaining,)
            return
        seed = (remaining & -remaining).bit_length() - 1
        for sub, pop in _connected_submasks(idx, seed, remaining, hi):
            if pop < lo:
                continue
            rest_pop = pop_left - pop
            if not (parts_left - 1) * lo <= rest_pop <= (parts_left - 1) * hi:
                continue
            rest = remaining & ~sub
            if rest == 0:
                continue
            yield from rec(rest, rest_pop, parts_left - 1, acc + (sub,))

    if full == 0 or kappa > len(idx.cells):
        return
    yield from rec(full, total_pop, kappa, ())


def _masks_to_partition(idx: _MaskIndex, masks: Sequence[int]) -> GridPartition:
    labels: dict[Cell, int] = {}
    for lab, mask in enumerate(masks, start=1):
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            labels[idx.cells[bit.bit_length() - 1]] = lab
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
    for masks in _enumerate_mask_partitions(idx, kappa, lo, hi):
        signed = 0
        for mask in masks:
            a = pop = 0
            m = mask
            while m:
                bit = m & -m
                m ^= bit
                i = bit.bit_length() - 1
                a += idx.party_a[i]
                pop += idx.pop[i]
            signed += (4 * a - 3 * pop) if 2 * a >= pop else (4 * a - pop)
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
