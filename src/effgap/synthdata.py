"""Synthetic state-scale benchmark fixtures.

The published county spreadsheets for the four benchmark states live at
a URL that is no longer reliably reachable, so these generators build
stand-in graphs at county scale (96 to 216 nodes) whose initial plans
reproduce the published summary statistics exactly: two-party vote
share, seat split, and normalized efficiency gap.

Construction: nodes form a grid, districts are rectangular blocks, and
the identity ``total_gap = 4*A - P - 2*(population of A-won districts)``
pins the gap target by choosing the winner-district population mass.  A
few losing districts are made deliberately narrow and get a high-A
"seed" node placed just across their border, so strictly improving
single-node moves can flip them and cut the gap far below its starting
value.  Everything is exact integer arithmetic from a deterministic
stream, so a fixture is reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import VoteCounts, a_wins, district_effgap
from .county import CSV_COLUMNS

TOTAL_POP = 1_000_000


@dataclass(frozen=True)
class StateProfile:
    code: str
    name: str
    kappa: int
    seats_a: int  # districts won by party A (Democrats) in the original plan
    share_bp: int  # party A vote share, basis points of 10000
    effgap_bp: int  # normalized efficiency gap of the original plan, basis points
    published_new_bp: int  # gap the published local-search run reached (context only)
    block_grid: tuple[int, int]  # (block rows, block cols)
    block_shape: tuple[int, int]  # nodes per block: (rows, cols)
    winner_blocks: tuple[int, ...]  # row-major block indices won by party A
    narrow_blocks: tuple[int, ...]  # losing blocks kept close to the flip point


STATE_PROFILES: dict[str, StateProfile] = {
    "WI": StateProfile("WI", "Wisconsin", 8, 3, 5075, 1476, 380,
                       (2, 4), (4, 3), (0, 1, 2), (3,)),
    "TX": StateProfile("TX", "Texas", 36, 12, 4365, 409, 333,
                       (6, 6), (2, 3), tuple(range(12)), (12, 13)),
    "VA": StateProfile("VA", "Virginia", 11, 4, 5196, 2225, 361,
                       (11, 1), (3, 3), (0, 2, 4, 6), (1, 3)),
    "PA": StateProfile("PA", "Pennsylvania", 18, 5, 5065, 2380, 864,
                       (6, 3), (2, 4), (0, 1, 2, 3, 4), (5, 6, 7)),
}


def _distribute(total: int, weights: list[int], floors: list[int], caps: list[int]) -> list[int]:
    """Exact integer split of `total` proportional to weights within bounds."""
    n = len(weights)
    if sum(floors) > total or total > sum(caps):
        raise ValueError("infeasible distribution bounds")
    x = list(floors)
    rem = total - sum(x)
    wsum = sum(weights)
    if wsum > 0 and rem > 0:
        quota = rem
        for i in range(n):
            add = min(caps[i] - x[i], quota * weights[i] // wsum)
            x[i] += add
            rem -= add
    i = 0
    while rem > 0:
        if x[i] < caps[i]:
            x[i] += 1
            rem -= 1
        i = (i + 1) % n
    return x


def _neighbors(r: int, c: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """The neighbours of (r, c) inside a rows x cols grid: up, down, left, right."""
    return [(rr, cc) for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
            if 0 <= rr < rows and 0 <= cc < cols]


def _block_of(r: int, c: int, profile: StateProfile) -> int:
    br, bc = profile.block_shape
    _, gcols = profile.block_grid
    return (r // br) * gcols + (c // bc)


def _district_populations(profile: StateProfile, pop_w: int, rng: random.Random) -> list[int]:
    """Per-district populations: winner mass exact, one low and one high anchor."""
    kappa, w = profile.kappa, profile.seats_a
    winners = set(profile.winner_blocks)
    narrow = set(profile.narrow_blocks)
    pop_l = TOTAL_POP - pop_w
    mean_w = pop_w // w
    mean_l = pop_l // (kappa - w)
    pops = [0] * kappa

    w_list = sorted(winners)
    anchor_low = w_list[0]
    pops[anchor_low] = mean_w * 94 // 100
    rest = [b for b in w_list if b != anchor_low]
    spread = _distribute(
        pop_w - pops[anchor_low],
        [1000 + rng.randrange(30) for _ in rest],
        [mean_w for _ in rest],
        [2 * mean_w for _ in rest],
    )
    for b, p in zip(rest, spread):
        pops[b] = p

    l_list = sorted(b for b in range(kappa) if b not in winners)
    anchor_high = max(b for b in l_list if b not in narrow)
    pops[anchor_high] = mean_l * 105 // 100
    for b in sorted(narrow):
        pops[b] = mean_l
    rest_l = [b for b in l_list if b != anchor_high and b not in narrow]
    remaining = pop_l - pops[anchor_high] - sum(pops[b] for b in narrow)
    if rest_l:
        spread = _distribute(
            remaining,
            [1000 + rng.randrange(30) for _ in rest_l],
            [mean_l * 90 // 100 for _ in rest_l],
            [mean_l * 104 // 100 for _ in rest_l],
        )
        for b, p in zip(rest_l, spread):
            pops[b] = p
    return pops


def _district_votes_a(
    profile: StateProfile, pops: list[int], rng: random.Random
) -> list[int]:
    """Per-district party-A totals hitting the statewide share exactly.

    Narrow losers sit just under the flip point; the remaining A mass is
    split between packed winners (around a 64% share) and ordinary
    losers.
    """
    kappa = profile.kappa
    winners = set(profile.winner_blocks)
    narrow = set(profile.narrow_blocks)
    total_a = profile.share_bp * TOTAL_POP // 10000
    votes_a = [0] * kappa
    for b in sorted(narrow):
        votes_a[b] = pops[b] // 2 - max(1, pops[b] * 9 // 1000)
    pool = total_a - sum(votes_a[b] for b in narrow)

    w_list = sorted(winners)
    pop_w = sum(pops[b] for b in w_list)
    normal_l = [b for b in range(kappa) if b not in winners and b not in narrow]
    pop_ln = sum(pops[b] for b in normal_l)
    share_l_num = pool - 64 * pop_w // 100
    share_l = Fraction(share_l_num, pop_ln) if pop_ln else Fraction(0)
    share_l = min(Fraction(46, 100), max(Fraction(30, 100), share_l))
    a_ln = int(share_l * pop_ln) if normal_l else 0
    a_w = pool - a_ln
    if not pop_w * 52 // 100 <= a_w <= pop_w * 95 // 100:
        raise AssertionError("winner vote mass out of safe range; retune profile")

    if normal_l:
        split = _distribute(
            a_ln,
            [1000 + rng.randrange(60) for _ in normal_l],
            [pops[b] * 30 // 100 for b in normal_l],
            [pops[b] // 2 - max(1, pops[b] * 25 // 1000) for b in normal_l],
        )
        for b, a in zip(normal_l, split):
            votes_a[b] = a
    split = _distribute(
        a_w,
        [1000 + rng.randrange(60) for _ in w_list],
        [pops[b] // 2 + pops[b] * 4 // 100 for b in w_list],
        [pops[b] * 92 // 100 for b in w_list],
    )
    for b, a in zip(w_list, split):
        votes_a[b] = a
    return votes_a


def _seed_nodes(profile: StateProfile) -> dict[int, int]:
    """narrow block -> host winner block.

    The host is the largest adjacent winner block, which keeps seeds out
    of the low-population anchor.
    """
    winners = set(profile.winner_blocks)
    grows, gcols = profile.block_grid
    out = {}
    for b in sorted(profile.narrow_blocks):
        r, c = divmod(b, gcols)
        adjacent = (rr * gcols + cc for rr, cc in _neighbors(r, c, grows, gcols))
        hosts = [nb for nb in adjacent if nb in winners]
        if not hosts:
            raise AssertionError(f"narrow block {b} not adjacent to any winner block")
        out[b] = max(hosts)
    return out


def synth_state_csv(code: str, seed: int = 0) -> str:
    """CSV text for one synthetic state; deterministic in (code, seed)."""
    profile = STATE_PROFILES[code]
    rng = random.Random(f"effgap-synth:{code}:{seed}")
    kappa = profile.kappa
    total_a = profile.share_bp * TOTAL_POP // 10000
    target_scaled = profile.effgap_bp * TOTAL_POP * 2 // 10000
    pop_w = (4 * total_a - TOTAL_POP - target_scaled) // 2
    if not 0 < pop_w < TOTAL_POP:
        raise AssertionError("winner population mass out of range; retune profile")

    pops = _district_populations(profile, pop_w, rng)
    votes_a = _district_votes_a(profile, pops, rng)

    grows, gcols = profile.block_grid
    brows, bcols = profile.block_shape
    nrows, ncols = grows * brows, gcols * bcols
    cells_of: dict[int, list[tuple[int, int]]] = {b: [] for b in range(kappa)}
    for r in range(nrows):
        for c in range(ncols):
            cells_of[_block_of(r, c, profile)].append((r, c))

    winners = set(profile.winner_blocks)
    seeds = _seed_nodes(profile)
    mean = TOTAL_POP // kappa
    seed_pop = max(100, mean // 30)
    seed_a = seed_pop * 93 // 100

    # Pick the concrete seed cell in each host block: the smallest host
    # cell sharing an edge with the narrow block, skipping cells already
    # taken by another seed.
    seed_cells: dict[tuple[int, int], tuple[int, int]] = {}  # cell -> (pop, a)
    for narrow_b, host in sorted(seeds.items()):
        candidates = [
            (r, c) for r, c in sorted(cells_of[host])
            if (r, c) not in seed_cells
            and any(_block_of(*nb, profile) == narrow_b for nb in _neighbors(r, c, nrows, ncols))
        ]
        if not candidates:
            raise AssertionError(f"no free seed cell between blocks {host} and {narrow_b}")
        seed_cells[candidates[0]] = (seed_pop, seed_a)

    node_pop: dict[tuple[int, int], int] = {}
    node_a: dict[tuple[int, int], int] = {}
    for b in range(kappa):
        cells = cells_of[b]
        fixed = [cell for cell in cells if cell in seed_cells]
        free = [cell for cell in cells if cell not in seed_cells]
        pop_left = pops[b] - sum(seed_cells[cell][0] for cell in fixed)
        a_left = votes_a[b] - sum(seed_cells[cell][1] for cell in fixed)
        if pop_left < 50 * len(free) or a_left < 0:
            raise AssertionError(f"district {b} cannot absorb its seed nodes")
        for cell in fixed:
            node_pop[cell], node_a[cell] = seed_cells[cell]
        pop_split = _distribute(
            pop_left,
            [1000 + rng.randrange(900) for _ in free],
            [50] * len(free),
            [pop_left] * len(free),
        )
        for cell, p in zip(free, pop_split):
            node_pop[cell] = p
        # Vote weights: winner-facing border cells of narrow districts
        # lean B so their departure helps a later flip; block-interior
        # cells hold the A mass.
        weights = []
        for cell in free:
            r, c = cell
            w_cell = 900 + rng.randrange(300)
            if b in profile.narrow_blocks:
                blocks = [_block_of(*nb, profile) for nb in _neighbors(r, c, nrows, ncols)]
                if any(nb in winners for nb in blocks):
                    w_cell = 250
                elif all(nb == b for nb in blocks):
                    w_cell = 1800
            weights.append(w_cell * node_pop[cell])
        a_split = _distribute(
            a_left, weights, [0] * len(free), [node_pop[cell] for cell in free]
        )
        for cell, a in zip(free, a_split):
            node_a[cell] = a

    # Consistency: the construction must reproduce the published numbers.
    for b in range(kappa):
        va = sum(node_a[cell] for cell in cells_of[b])
        vp = sum(node_pop[cell] for cell in cells_of[b])
        if (va, vp) != (votes_a[b], pops[b]):
            raise AssertionError(f"district {b} aggregates drifted")
        if a_wins(VoteCounts(va, vp - va)) != (b in winners):
            raise AssertionError(f"district {b} winner flipped by rounding")
    signed = sum(
        district_effgap(VoteCounts(votes_a[b], pops[b] - votes_a[b])) for b in range(kappa)
    )
    if abs(signed) != target_scaled:
        raise AssertionError("efficiency-gap target missed")

    def county_id(cell: tuple[int, int]) -> str:
        return f"{code}{cell[0] * ncols + cell[1]:04d}"

    lines = [",".join(CSV_COLUMNS)]
    for r in range(nrows):
        for c in range(ncols):
            cell = (r, c)
            b = _block_of(r, c, profile)
            nbs = [f"{_block_of(*nb, profile) + 1}:{county_id(nb)}"
                   for nb in _neighbors(r, c, nrows, ncols)]
            pop, a = node_pop[cell], node_a[cell]
            lines.append(
                f'{b + 1},{county_id(cell)},{profile.name} Cell {r}-{c},'
                f'{pop - a},{a},"{", ".join(nbs)}"'
            )
    return "\n".join(lines) + "\n"
