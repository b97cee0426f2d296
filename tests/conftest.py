"""Shared builders for grid and county test instances."""

from __future__ import annotations

import random

import pytest

from effgap.core import VoteCounts
from effgap.grid import GridPolygon, validate_polygon


def polygon(votes: dict[tuple[int, int], tuple[int, int]], rows=None, cols=None) -> GridPolygon:
    """Polygon from {(row, col): (party_a, party_b)}."""
    rows = rows if rows is not None else 1 + max(r for r, _ in votes)
    cols = cols if cols is not None else 1 + max(c for _, c in votes)
    return GridPolygon(rows, cols, {cell: VoteCounts(a, b) for cell, (a, b) in votes.items()})


def uniform_rect(m: int, n: int, pop: int = 1, a_cells=()) -> GridPolygon:
    votes = {}
    for r in range(m):
        for c in range(n):
            a = pop if (r, c) in set(a_cells) else 0
            votes[(r, c)] = VoteCounts(a, pop - a)
    return GridPolygon(m, n, votes)


def random_blob(rng: random.Random, size: int, max_dim: int = 5) -> set[tuple[int, int]]:
    """Random hole-free 4-connected cell set of the requested size."""
    while True:
        cells = {(rng.randrange(max_dim), rng.randrange(max_dim))}
        while len(cells) < size:
            r, c = rng.choice(sorted(cells))
            dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
            rr, cc = r + dr, c + dc
            if 0 <= rr < max_dim and 0 <= cc < max_dim:
                cells.add((rr, cc))
        probe = GridPolygon(max_dim, max_dim, {cell: VoteCounts(0, 0) for cell in cells})
        if validate_polygon(probe).ok:
            return cells


def random_polygon(rng: random.Random, size: int, max_pop: int = 4, uniform: bool = False) -> GridPolygon:
    cells = random_blob(rng, size)
    votes = {}
    for cell in cells:
        pop = 1 if uniform else rng.randint(0, max_pop)
        a = rng.randint(0, pop)
        votes[cell] = VoteCounts(a, pop - a)
    rows = 1 + max(r for r, _ in cells)
    cols = 1 + max(c for _, c in cells)
    return GridPolygon(rows, cols, votes)


def random_column_polygon(rng: random.Random, max_cells: int = 12, uniform: bool = False) -> GridPolygon:
    """Random polygon whose every column is a single vertical run."""
    while True:
        cols = rng.randint(1, 4)
        runs = []
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(0, 3)
        runs.append((lo, hi))
        for _ in range(cols - 1):
            plo, phi = runs[-1]
            lo = rng.randint(max(0, plo - 2), phi)
            hi = rng.randint(max(lo, plo), min(lo + 3, phi + 2))
            runs.append((lo, hi))
        cells = {(r, c) for c, (lo, hi) in enumerate(runs) for r in range(lo, hi + 1)}
        if len(cells) > max_cells:
            continue
        votes = {}
        for cell in cells:
            pop = 1 if uniform else rng.randint(0, 4)
            a = rng.randint(0, pop)
            votes[cell] = VoteCounts(a, pop - a)
        rows = 1 + max(r for r, _ in cells)
        return GridPolygon(rows, cols, votes)


def county_grid_csv(seed: int, side: int = 12, bands: int = 4) -> str:
    """County CSV of a side x side grid cut into bands x bands districts.

    Band edges are jittered and node populations vary, so the frozen
    population bounds leave local search room to move many nodes.
    """
    rng = random.Random(seed)
    step = side // bands
    row_cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]
    col_cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]

    def district(r: int, c: int) -> int:
        br = next(i for i in range(bands) if row_cuts[i] <= r < row_cuts[i + 1])
        bc = next(i for i in range(bands) if col_cuts[i] <= c < col_cuts[i + 1])
        return br * bands + bc + 1

    lines = ["District,County_id,County,Republicans,Democrats,Neighbors"]
    for r in range(side):
        for c in range(side):
            pop = rng.randint(80, 120)
            dem = rng.randint(pop * 3 // 10, pop * 7 // 10)
            nbs = ", ".join(
                f"{district(rr, cc)}:g{rr}_{cc}"
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < side and 0 <= cc < side
            )
            lines.append(f'{district(r, c)},g{r}_{c},G,{pop - dem},{dem},"{nbs}"')
    return "\n".join(lines) + "\n"


TOY_COUNTY_CSV = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,40,60,"1:A2, 2:B1"
1,A2,Beta,30,20,"1:A1, 2:B2"
2,B1,Gamma,50,10,"1:A1, 2:B2"
2,B2,Delta,60,40,"1:A2, 2:B1"
"""


@pytest.fixture
def toy_county_csv() -> str:
    return TOY_COUNTY_CSV
