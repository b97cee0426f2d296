"""County-level data ingestion and district plans on adjacency graphs.

The input is a CSV export with columns District, County_id, County,
Republicans, Democrats, Neighbors.  A county split across districts
appears once per district, so (District, County_id) is the node key.
Party A is the Democrats and party B the Republicans, matching the
column order of the published summary tables; the measure is symmetric
up to sign, but reports follow this convention throughout.

The Neighbors cell holds comma-separated ``district:county_id`` tokens.
One-sided neighbor listings are symmetrized with a warning, since hand
curated files commonly have them.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import Iterable

from .core import PlanStats, VoteCounts, ZERO_VOTES, district_effgap, total_effgap

NodeKey = tuple[int, str]

CSV_COLUMNS = ["District", "County_id", "County", "Republicans", "Democrats", "Neighbors"]


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class CountyNode:
    district: int  # district of the original plan; part of the node's identity
    county_id: str
    county_name: str
    votes: VoteCounts  # party_a = Democrats, party_b = Republicans
    neighbors: tuple[NodeKey, ...]

    @property
    def key(self) -> NodeKey:
        return (self.district, self.county_id)


@dataclass(frozen=True)
class CountyGraph:
    nodes: dict[NodeKey, CountyNode]

    @functools.cached_property
    def keys(self) -> tuple[NodeKey, ...]:
        return tuple(self.nodes)

    def neighbors(self, key: NodeKey) -> tuple[NodeKey, ...]:
        return self.nodes[key].neighbors

    def total_votes(self) -> VoteCounts:
        total = ZERO_VOTES
        for node in self.nodes.values():
            total = total + node.votes
        return total


@dataclass
class DistrictPlan:
    """Assignment of nodes to districts plus cached aggregates.

    Population bounds are frozen from the plan the graph was ingested
    with and are never recomputed: a reassignment is valid only while
    every district stays within them.
    """

    assignment: dict[NodeKey, int]
    district_ids: tuple[int, ...]
    district_votes: dict[int, VoteCounts]
    members: dict[int, set[NodeKey]]
    pop_lo: int
    pop_hi: int

    @property
    def kappa(self) -> int:
        return len(self.district_ids)

    def copy(self) -> "DistrictPlan":
        return DistrictPlan(
            dict(self.assignment),
            self.district_ids,
            dict(self.district_votes),
            {d: set(m) for d, m in self.members.items()},
            self.pop_lo,
            self.pop_hi,
        )

    def signed_scaled_effgap(self) -> int:
        return sum(district_effgap(v) for v in self.district_votes.values())

    def scaled_effgap(self) -> int:
        return abs(self.signed_scaled_effgap())

    def move(self, graph: CountyGraph, node: NodeKey, target: int) -> None:
        """Reassign one node; caller is responsible for legality."""
        source = self.assignment[node]
        votes = graph.nodes[node].votes
        self.assignment[node] = target
        self.members[source].discard(node)
        self.members[target].add(node)
        src = self.district_votes[source]
        tgt = self.district_votes[target]
        self.district_votes[source] = VoteCounts(src.party_a - votes.party_a, src.party_b - votes.party_b)
        self.district_votes[target] = VoteCounts(tgt.party_a + votes.party_a, tgt.party_b + votes.party_b)


@dataclass(frozen=True)
class PlanReport:
    ok: bool
    reason: str | None = None


@dataclass(frozen=True)
class IngestResult:
    graph: CountyGraph
    plan: DistrictPlan
    warnings: tuple[str, ...] = field(default=())


def _parse_neighbor_token(token: str) -> NodeKey:
    head, sep, tail = token.strip().partition(":")
    if not sep or not tail:
        raise ValueError(f"neighbor token {token.strip()!r} is not 'district:county_id'")
    return (int(head), tail)


def _connected_nodes(keys: Iterable[NodeKey], adjacency: dict[NodeKey, tuple[NodeKey, ...]]) -> bool:
    keys = set(keys)
    if not keys:
        return False
    start = next(iter(keys))
    seen = {start}
    stack = [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb in keys and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == keys


def _plan_from_columns(graph: CountyGraph) -> DistrictPlan:
    assignment = {key: key[0] for key in graph.nodes}
    district_ids = tuple(sorted(set(assignment.values())))
    members: dict[int, set[NodeKey]] = {d: set() for d in district_ids}
    votes: dict[int, VoteCounts] = {d: ZERO_VOTES for d in district_ids}
    for key, node in graph.nodes.items():
        d = assignment[key]
        members[d].add(key)
        votes[d] = votes[d] + node.votes
    pops = [votes[d].population() for d in district_ids]
    return DistrictPlan(assignment, district_ids, votes, members, min(pops), max(pops))


def initial_plan(graph: CountyGraph) -> DistrictPlan:
    """The plan encoded by the District column, with its frozen bounds."""
    return _plan_from_columns(graph)


def ingest(source: str | io.TextIOBase) -> IngestResult:
    """Parse a county CSV into a graph and its initial district plan.

    Raises IngestError (naming the offending rows) for duplicate keys,
    unknown neighbors, malformed numbers, a disconnected graph, or a
    disconnected initial district.
    """
    text = source.read() if hasattr(source, "read") else source
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or list(reader.fieldnames) != CSV_COLUMNS:
        raise IngestError(
            f"header must be exactly {','.join(CSV_COLUMNS)}; got {reader.fieldnames}"
        )
    rows = []
    row_of: dict[NodeKey, int] = {}
    for row_no, row in enumerate(reader, start=2):
        try:
            district = int(row["District"])
            county_id = row["County_id"].strip()
            if not county_id or ":" in county_id or "," in county_id:
                raise ValueError(f"county id {county_id!r} empty or contains ':' or ','")
            republicans = int(row["Republicans"])
            democrats = int(row["Democrats"])
        except (TypeError, ValueError) as exc:
            raise IngestError(f"row {row_no}: {exc}") from exc
        if republicans < 0 or democrats < 0:
            raise IngestError(f"row {row_no}: negative vote count")
        key = (district, county_id)
        if key in row_of:
            raise IngestError(
                f"row {row_no}: duplicate county key {district}:{county_id} "
                f"(first seen at row {row_of[key]})"
            )
        row_of[key] = row_no
        rows.append((row_no, key, row["County"], democrats, republicans, row["Neighbors"]))
    if not rows:
        raise IngestError("no data rows")

    neighbor_sets: dict[NodeKey, set[NodeKey]] = {key: set() for _, key, *_ in rows}
    for row_no, key, _, _, _, raw in rows:
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                nb = _parse_neighbor_token(token)
            except ValueError as exc:
                raise IngestError(f"row {row_no}: {exc}") from exc
            if nb not in neighbor_sets:
                raise IngestError(f"row {row_no}: unknown neighbor {token}")
            if nb == key:
                raise IngestError(f"row {row_no}: node lists itself as neighbor")
            neighbor_sets[key].add(nb)

    warnings = []
    for key, nbs in sorted(neighbor_sets.items()):
        for nb in sorted(nbs):
            if key not in neighbor_sets[nb]:
                neighbor_sets[nb].add(key)
                warnings.append(
                    f"one-sided neighbor listing {key[0]}:{key[1]} -> {nb[0]}:{nb[1]}; symmetrized"
                )

    nodes: dict[NodeKey, CountyNode] = {}
    for _, key, name, democrats, republicans, _ in sorted(rows, key=lambda r: r[1]):
        nodes[key] = CountyNode(
            key[0], key[1], name, VoteCounts(democrats, republicans),
            tuple(sorted(neighbor_sets[key])),
        )
    graph = CountyGraph(nodes)

    adjacency = {key: nodes[key].neighbors for key in nodes}
    if not _connected_nodes(nodes.keys(), adjacency):
        raise IngestError("graph disconnected")
    plan = _plan_from_columns(graph)
    for d in plan.district_ids:
        members = plan.members[d]
        if not _connected_nodes(members, adjacency):
            member_rows = sorted(row_of[k] for k in members)
            raise IngestError(f"initial district {d} disconnected (rows {member_rows})")
    return IngestResult(graph, plan, tuple(warnings))


def serialize_graph(graph: CountyGraph) -> str:
    """Canonical CSV for the graph; ingest(serialize(g)) reproduces g."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for key in sorted(graph.nodes):
        node = graph.nodes[key]
        neighbors = ", ".join(f"{d}:{cid}" for d, cid in node.neighbors)
        writer.writerow(
            [node.district, node.county_id, node.county_name,
             node.votes.party_b, node.votes.party_a, neighbors]
        )
    return buf.getvalue()


def validate_plan(graph: CountyGraph, plan: DistrictPlan) -> PlanReport:
    """Full check: cover, non-empty connected districts, population bounds."""
    if set(plan.assignment) != set(graph.nodes):
        return PlanReport(False, "assignment does not cover the graph")
    adjacency = {key: graph.nodes[key].neighbors for key in graph.nodes}
    recomputed: dict[int, VoteCounts] = {d: ZERO_VOTES for d in plan.district_ids}
    assigned: dict[int, set[NodeKey]] = {d: set() for d in plan.district_ids}
    for key, d in plan.assignment.items():
        if d not in recomputed:
            return PlanReport(False, f"node assigned to unknown district {d}")
        recomputed[d] = recomputed[d] + graph.nodes[key].votes
        assigned[d].add(key)
    for d in plan.district_ids:
        members = plan.members.get(d, set())
        if not members:
            return PlanReport(False, f"district {d} empty")
        if assigned[d] != members:
            return PlanReport(False, f"district {d} member cache inconsistent")
        if recomputed[d] != plan.district_votes[d]:
            return PlanReport(False, f"district {d} vote cache inconsistent")
        if not _connected_nodes(members, adjacency):
            return PlanReport(False, f"district {d} disconnected")
        pop = recomputed[d].population()
        if not plan.pop_lo <= pop <= plan.pop_hi:
            return PlanReport(
                False,
                f"district {d} population {pop} outside [{plan.pop_lo}, {plan.pop_hi}]",
            )
    return PlanReport(True)


def plan_stats(graph: CountyGraph, plan: DistrictPlan) -> PlanStats:
    """Efficiency-gap statistics of the plan, districts in id order."""
    report = validate_plan(graph, plan)
    if not report.ok:
        raise ValueError(f"invalid plan: {report.reason}")
    return total_effgap([plan.district_votes[d] for d in plan.district_ids])


def write_plan_csv(plan: DistrictPlan) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["district", "county_id", "assigned_district"])
    for (district, county_id) in sorted(plan.assignment):
        writer.writerow([district, county_id, plan.assignment[(district, county_id)]])
    return buf.getvalue()


def read_plan_csv(graph: CountyGraph, text: str) -> DistrictPlan:
    """A plan file applied to a graph; bounds stay those of the initial plan.

    The plan keeps the initial plan's districts: an assigned district
    outside them is rejected, and one left without nodes stays in the
    plan, empty, for ``validate_plan`` to report.
    """
    base = initial_plan(graph)
    known = set(base.district_ids)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or list(reader.fieldnames) != ["district", "county_id", "assigned_district"]:
        raise IngestError("plan header must be district,county_id,assigned_district")
    assignment: dict[NodeKey, int] = {}
    for row_no, row in enumerate(reader, start=2):
        try:
            key = (int(row["district"]), row["county_id"].strip())
            assigned = int(row["assigned_district"])
        except (TypeError, ValueError) as exc:
            raise IngestError(f"row {row_no}: {exc}") from exc
        if key not in graph.nodes:
            raise IngestError(f"row {row_no}: unknown node {key[0]}:{key[1]}")
        if key in assignment:
            raise IngestError(f"row {row_no}: duplicate node {key[0]}:{key[1]}")
        if assigned not in known:
            raise IngestError(f"row {row_no}: unknown district {assigned}")
        assignment[key] = assigned
    if set(assignment) != set(graph.nodes):
        raise IngestError("plan does not cover every node")
    district_ids = base.district_ids
    members: dict[int, set[NodeKey]] = {d: set() for d in district_ids}
    votes: dict[int, VoteCounts] = {d: ZERO_VOTES for d in district_ids}
    for key, d in assignment.items():
        members[d].add(key)
        votes[d] = votes[d] + graph.nodes[key].votes
    return DistrictPlan(assignment, district_ids, votes, members, base.pop_lo, base.pop_hi)
