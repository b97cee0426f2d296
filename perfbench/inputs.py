"""Seeded input generators and the independent arithmetic the checks use.

Everything here is derived from the workload seed, so the same seed gives
byte-identical input files.  Nothing in this module calls into effgap: the
county parser, the gap arithmetic and the plan builder are written out
again so that the output checks do not trust the code they check.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

COUNTY_HEADER = "District,County_id,County,Republicans,Democrats,Neighbors"
PLAN_HEADER = "district,county_id,assigned_district"

# Column-convex shapes for the exact solvers, as (rows, per-column inclusive
# row runs).  Consecutive runs overlap, so every shape is connected and
# hole-free.  With uniform cell populations the oracle's work depends on the
# shape alone, which keeps its cost steady across seeds.
SHAPES = {
    "diamond6": (6, ((2, 3), (1, 4), (0, 5), (0, 5), (1, 4), (2, 3))),
    "diamond7": (6, ((2, 3), (1, 4), (0, 5), (0, 5), (1, 4), (2, 3), (2, 3))),
    "hex26": (5, ((1, 3), (0, 4), (0, 4), (0, 4), (0, 4), (1, 3))),
    "barrel26": (6, ((1, 4), (0, 5), (0, 5), (0, 5), (1, 4))),
}


def scaled_gap(a: int, pop: int) -> int:
    """Twice one district's efficiency gap; ties go to party A."""
    return 4 * a - 3 * pop if 2 * a >= pop else 4 * a - pop


def normalized_bp(total_scaled_abs: int, pop: int) -> int:
    return round(Fraction(total_scaled_abs, 2 * pop) * 10000)


# ---------------------------------------------------------------------------
# County graphs
# ---------------------------------------------------------------------------


def county_grid_csv(rng: random.Random, side: int = 40, bands: int = 4) -> str:
    """A side x side county grid cut into bands x bands rectangular districts.

    Band edges are jittered by one node either way, so district populations
    differ and the frozen population bounds leave local search some room.
    """
    step = side // bands
    cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]
    col_cuts = [0] + [b * step + rng.randint(-1, 1) for b in range(1, bands)] + [side]

    def band(x: int, edges: list[int]) -> int:
        return next(i for i in range(bands) if edges[i] <= x < edges[i + 1])

    def district(r: int, c: int) -> int:
        return band(r, cuts) * bands + band(c, col_cuts) + 1

    def county_id(r: int, c: int) -> str:
        return f"G{r * side + c:04d}"

    lines = [COUNTY_HEADER]
    for r in range(side):
        for c in range(side):
            pop = rng.randint(800, 1200)
            dem = rng.randint(pop * 3 // 10, pop * 7 // 10)
            nbs = [
                f"{district(rr, cc)}:{county_id(rr, cc)}"
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < side and 0 <= cc < side
            ]
            lines.append(
                f'{district(r, c)},{county_id(r, c)},Grid {r}-{c},{pop - dem},{dem},"{", ".join(nbs)}"'
            )
    return "\n".join(lines) + "\n"


class County:
    """A county CSV parsed without effgap: votes, adjacency, initial plan."""

    def __init__(self, text: str):
        self.dem: dict[tuple[int, str], int] = {}
        self.pop: dict[tuple[int, str], int] = {}
        self.adj: dict[tuple[int, str], list[tuple[int, str]]] = {}
        for row in csv.DictReader(io.StringIO(text)):
            key = (int(row["District"]), row["County_id"].strip())
            dem, rep = int(row["Democrats"]), int(row["Republicans"])
            self.dem[key] = dem
            self.pop[key] = dem + rep
            self.adj[key] = []
            for token in row["Neighbors"].split(","):
                if token.strip():
                    d, _, cid = token.strip().partition(":")
                    self.adj[key].append((int(d), cid))
        for key, nbs in self.adj.items():  # symmetrize as ingest does
            for nb in nbs:
                if key not in self.adj[nb]:
                    self.adj[nb].append(key)
        self.keys = sorted(self.dem)
        self.initial = {key: key[0] for key in self.keys}
        pops = self.district_totals(self.initial)
        self.pop_lo = min(p for _, p in pops.values())
        self.pop_hi = max(p for _, p in pops.values())

    def district_totals(self, assignment: dict) -> dict[int, tuple[int, int]]:
        """District id -> (Democrat votes, population)."""
        out: dict[int, tuple[int, int]] = {}
        for key, d in assignment.items():
            a, p = out.get(d, (0, 0))
            out[d] = (a + self.dem[key], p + self.pop[key])
        return out

    def summary(self, assignment: dict) -> dict:
        """The manifest's stats fields, recomputed from scratch."""
        totals = self.district_totals(assignment)
        signed = sum(scaled_gap(a, p) for a, p in totals.values())
        pop = sum(p for _, p in totals.values())
        seats_a = sum(1 for a, p in totals.values() if 2 * a >= p)
        return {
            "normalized_bp": str(normalized_bp(abs(signed), pop)),
            "seats_a": seats_a,
            "seats_b": len(totals) - seats_a,
            "total_scaled_abs": abs(signed),
        }

    def random_plan(self, rng: random.Random, moves: int) -> dict:
        """The initial plan after `moves` random legal single-node moves.

        A move keeps the source district non-empty and connected and both
        districts inside the initial plan's population range, the same
        conditions the program's plan validation enforces.
        """
        assignment = dict(self.initial)
        members: dict[int, set] = {}
        for key, d in assignment.items():
            members.setdefault(d, set()).add(key)
        totals = {d: p for d, (_, p) in self.district_totals(assignment).items()}
        done = 0
        while done < moves:
            node = rng.choice(self.keys)
            source = assignment[node]
            targets = sorted({assignment[nb] for nb in self.adj[node]} - {source})
            if not targets:
                continue
            target = rng.choice(targets)
            pop = self.pop[node]
            if totals[source] - pop < self.pop_lo or totals[target] + pop > self.pop_hi:
                continue
            if not connected(members[source] - {node}, self.adj.__getitem__):
                continue
            members[source].discard(node)
            members[target].add(node)
            totals[source] -= pop
            totals[target] += pop
            assignment[node] = target
            done += 1
        return assignment


def connected(nodes: set, neighbors) -> bool:
    """True when `nodes` is non-empty and connected under `neighbors(node)`."""
    if not nodes:
        return False
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        for nb in neighbors(stack.pop()):
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


def plan_csv(assignment: dict) -> str:
    lines = [PLAN_HEADER] + [f"{d},{cid},{assignment[(d, cid)]}" for d, cid in sorted(assignment)]
    return "\n".join(lines) + "\n"


def read_plan(text: str) -> dict:
    rows = csv.DictReader(io.StringIO(text))
    return {(int(r["district"]), r["county_id"]): int(r["assigned_district"]) for r in rows}


# ---------------------------------------------------------------------------
# Grid instances
# ---------------------------------------------------------------------------


def instance_text(rows: int, cols: int, kappa: int, votes: dict) -> str:
    """The grid instance format: header ``m n kappa``, then ``row col a b``."""
    lines = [f"{rows} {cols} {kappa}"]
    lines += [f"{r} {c} {a} {b}" for (r, c), (a, b) in sorted(votes.items())]
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[int, dict]:
    lines = text.split("\n")
    kappa = int(lines[0].split()[2])
    votes = {}
    for ln in lines[1:]:
        if ln:
            r, c, a, b = map(int, ln.split())
            votes[(r, c)] = (a, b)
    return kappa, votes


def uniform_votes(rng: random.Random, cells, cell_pop: int) -> dict:
    """Every cell holds `cell_pop` voters with a random party split."""
    votes = {}
    for cell in cells:
        a = rng.randint(0, cell_pop)
        votes[cell] = (a, cell_pop - a)
    return votes


def rectangle(rows: int, cols: int) -> list:
    return [(r, c) for r in range(rows) for c in range(cols)]


def shape_cells(name: str) -> tuple[int, int, list]:
    rows, runs = SHAPES[name]
    cells = [(r, c) for c, (top, bottom) in enumerate(runs) for r in range(top, bottom + 1)]
    return rows, len(runs), cells


def random_pop_votes(rng: random.Random, cells, lo: int, hi: int) -> dict:
    votes = {}
    for cell in cells:
        pop = rng.randint(lo, hi)
        a = rng.randint(0, pop)
        votes[cell] = (a, pop - a)
    return votes


def has_equal_split(values: list[int]) -> bool:
    total = sum(values)
    if total % 2:
        return False
    reachable = {0}
    for v in values:
        reachable |= {s + v for s in reachable}
    return total // 2 in reachable


def gadget_values(rng: random.Random, count: int, equal_split: bool) -> list[int]:
    """Positive integers whose equal-split answer is `equal_split`."""
    while True:
        values = [rng.randint(1, 40) for _ in range(count)]
        if has_equal_split(values) == equal_split:
            return values


def label_partition(text: str) -> dict:
    """A ``row col label`` partition file as a cell -> label map."""
    out = {}
    for ln in text.split("\n"):
        if ln:
            r, c, lab = map(int, ln.split())
            out[(r, c)] = lab
    return out


def grid_neighbors(cell: tuple[int, int]) -> tuple:
    r, c = cell
    return ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))


def partition_value(votes: dict, labels: dict) -> int:
    """Scaled total absolute gap of a labelled partition."""
    totals: dict[int, list[int]] = {}
    for cell, lab in labels.items():
        a, b = votes[cell]
        t = totals.setdefault(lab, [0, 0])
        t[0] += a
        t[1] += a + b
    return abs(sum(scaled_gap(a, p) for a, p in totals.values()))
