"""County-level data ingestion and district plans on adjacency graphs.

The input is a CSV export with columns District, County_id, County,
Republicans, Democrats, Neighbors.  A county split across districts
appears once per district, so (District, County_id) is the node key.
Party A is the Democrats and party B the Republicans, matching the
column order of the published summary tables; the measure is symmetric
up to sign, but reports follow this convention throughout.  The County
column must be present, but nothing reads its values.

The Neighbors cell holds comma-separated ``district:county_id`` tokens.
One-sided neighbor listings are symmetrized with a warning, since hand
curated files commonly have them.

Ingest numbers the nodes in key order and keeps each node's key, its
party-A votes, its population and its neighbours in tables indexed by
those numbers.  A plan is a list, ``plan[i]`` the district of node i;
the district ids and the population bounds every plan must keep are the
graph's, frozen by ``ingest`` from the District column.  Keys and
numbers are translated only at the file edges: ``ingest``,
``read_plan_csv`` and ``write_plan_csv``.  Each whole-plan check (the
graph and its initial districts in ``ingest``, and ``validate_plan``) is
one sweep, ``_components``, over a label list such as a plan's: it gives
each district its component count and its population, so a district is
connected when it has one component, and the graph when a list of equal
labels has one.  The local search's source check needs only a few nodes
reached, so it keeps its own search that stops early
(``localsearch._reaches``).
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import PlanStats, Report, VoteCounts, total_effgap

NodeKey = tuple[int, str]

CSV_COLUMNS = ["District", "County_id", "County", "Republicans", "Democrats", "Neighbors"]
PLAN_COLUMNS = ["district", "county_id", "assigned_district"]


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class CountyGraph:
    """Node tables in node order, the adjacency, and the plans' constraints.

    Node i is the i-th (district, county_id) key in sorted order:
    ``nodes[i]``, with ``index[nodes[i]] == i``.  ``node_a[i]`` is its
    party-A (Democratic) vote count and ``node_pop[i]`` its two-party
    population.  ``adj[i]`` holds its neighbours as ascending numbers,
    which is their key order.

    ``district_ids`` are the districts of the ingested plan, ascending,
    and every district of a valid plan has a population within
    [``pop_lo``, ``pop_hi``], the smallest and largest of the ingested
    plan's.  The bounds are never recomputed from a later plan;
    ``dataclasses.replace`` gives the same graph with another window.
    """

    nodes: tuple[NodeKey, ...]
    node_a: tuple[int, ...]
    node_pop: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    district_ids: tuple[int, ...]
    pop_lo: int
    pop_hi: int

    @functools.cached_property
    def index(self) -> dict[NodeKey, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))

    def total_votes(self) -> VoteCounts:
        party_a = sum(self.node_a)
        return VoteCounts(party_a, sum(self.node_pop) - party_a)


@dataclass(frozen=True)
class IngestResult:
    graph: CountyGraph
    plan: list[int]  # the District column: plan[i] is the district of graph.nodes[i]
    warnings: tuple[str, ...] = field(default=())


def _csv_rows(text: str, columns: list[str], header_error: str) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) of each data row of a CSV with header `columns`.

    Blank lines are skipped and not counted, so row numbers count the
    header as row 1 and every non-blank row after it.  `header_error` is
    formatted with ``got``, the header row read (None for empty text).  A
    row with a different number of fields than `columns` is an error: a
    short row has no value for some column, and a long one, such as an
    unquoted Neighbors list, would silently lose the fields beyond it.  A
    row the csv module cannot read, such as one with a bare carriage
    return in an unquoted field, is an error naming that row.
    """
    reader = csv.reader(io.StringIO(text))
    row_no = 0  # rows read so far; the reader fails on the next one
    try:
        header = next(reader, None)
        row_no = 1
        if header != columns:
            raise IngestError(header_error.format(got=header))
        width = len(columns)
        for row in filter(None, reader):
            row_no += 1
            if len(row) != width:
                raise IngestError(f"row {row_no}: expected {width} fields, got {len(row)}")
            yield row_no, row
    except csv.Error as exc:
        raise IngestError(f"row {row_no + 1}: {exc}") from exc


def _parse_neighbor_token(token: str) -> NodeKey:
    head, sep, tail = token.strip().partition(":")
    if not sep or not tail:
        raise ValueError(f"neighbor token {token.strip()!r} is not 'district:county_id'")
    return (int(head), tail.strip())


def _components(adj: Sequence[Iterable[int]], label: Sequence[int],
                pop: Sequence[int]) -> tuple[dict[int, int], dict[int, int]]:
    """(parts, pops): for each label, the components its nodes form and their summed population.

    One sweep gives both.  ``adj[i]`` gives node i's neighbours, as in
    ``CountyGraph.adj``, and ``pop[i]`` is node i's population.  Both
    dicts have one entry per label, in the order of its first node.
    """
    seen = [False] * len(adj)
    parts: dict[int, int] = {}
    pops: dict[int, int] = {}
    for start, d in enumerate(label):
        if seen[start]:
            continue
        seen[start] = True
        total = pop[start]
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if not seen[nb] and label[nb] == d:
                    seen[nb] = True
                    total += pop[nb]
                    stack.append(nb)
        parts[d] = parts.get(d, 0) + 1
        pops[d] = pops.get(d, 0) + total
    return parts, pops


def ingest(text: str) -> IngestResult:
    """Parse county CSV text into a graph and its initial district plan.

    The graph's district ids and population bounds are those of the
    District column's plan.

    Raises IngestError (naming the offending rows) for a wrong header, a
    row the csv module cannot read or without exactly six fields,
    duplicate keys, unknown neighbors, malformed numbers, a vote total of
    0 (the normalized gap divides by it), a disconnected graph, or a
    disconnected initial district.
    """
    header_error = f"header must be exactly {','.join(CSV_COLUMNS)}; got {{got}}"
    rows = []
    row_of: dict[NodeKey, int] = {}
    for row_no, (district, county_id, _, republicans, democrats, neighbors) in _csv_rows(
        text, CSV_COLUMNS, header_error
    ):
        try:
            district = int(district)
            county_id = county_id.strip()
            if not county_id or ":" in county_id or "," in county_id:
                raise ValueError(f"county id {county_id!r} empty or contains ':' or ','")
            republicans = int(republicans)
            democrats = int(democrats)
        except ValueError as exc:
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
        rows.append((row_no, key, democrats, democrats + republicans, neighbors))
    if not rows:
        raise IngestError("no data rows")
    if not sum(pop for _, _, _, pop, _ in rows):
        raise IngestError("total vote count is 0")

    # Node i is the i-th key in sorted order.  A token spelled exactly as a
    # key is written ("district:county_id") is looked up; any other
    # spelling, such as "01:a", is parsed.
    keys = sorted(row_of)
    index = dict(zip(keys, range(len(keys))))
    number_of_token = {f"{d}:{cid}": i for i, (d, cid) in enumerate(keys)}
    node_a = [0] * len(keys)
    node_pop = [0] * len(keys)
    neighbor_sets: list[set[int]] = [set() for _ in keys]
    for row_no, key, a, pop, raw in rows:
        i = index[key]
        node_a[i], node_pop[i] = a, pop
        nbs = neighbor_sets[i]
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            j = number_of_token.get(token)
            if j is None:
                try:
                    j = index.get(_parse_neighbor_token(token))
                except ValueError as exc:
                    raise IngestError(f"row {row_no}: {exc}") from exc
                if j is None:
                    raise IngestError(f"row {row_no}: unknown neighbor {token}")
            if j == i:
                raise IngestError(f"row {row_no}: node lists itself as neighbor")
            nbs.add(j)

    # All one-sided pairs are found before any is mended.  Mending adds only
    # the reverse of a one-sided pair, which is never one-sided itself, so
    # the sorted pairs are the warnings in key order.
    one_sided = sorted(
        (i, j) for i, nbs in enumerate(neighbor_sets) for j in nbs if i not in neighbor_sets[j]
    )
    warnings = []
    for i, j in one_sided:
        neighbor_sets[j].add(i)
        (d, cid), (nb_d, nb_cid) = keys[i], keys[j]
        warnings.append(f"one-sided neighbor listing {d}:{cid} -> {nb_d}:{nb_cid}; symmetrized")

    adj = tuple(tuple(sorted(nbs)) for nbs in neighbor_sets)
    if _components(adj, [0] * len(keys), node_pop)[0] != {0: 1}:
        raise IngestError("graph disconnected")
    # Keys are sorted, so the ids come in ascending order.
    label = [d for d, _ in keys]
    parts, pops = _components(adj, label, node_pop)
    split = [d for d, n in parts.items() if n > 1]
    if split:
        member_rows = sorted(row_of[key] for key in keys if key[0] == split[0])
        raise IngestError(f"initial district {split[0]} disconnected (rows {member_rows})")
    graph = CountyGraph(tuple(keys), tuple(node_a), tuple(node_pop), adj, tuple(pops),
                        min(pops.values()), max(pops.values()))
    return IngestResult(graph, label, tuple(warnings))


def validate_plan(graph: CountyGraph, dist: list[int]) -> Report:
    """Full check: cover, non-empty connected districts, the graph's population bounds."""
    if len(dist) != len(graph.nodes):
        return Report(False, "assignment does not cover the graph")
    parts, pops = _components(graph.adj, dist, graph.node_pop)
    known = set(graph.district_ids)
    for d in parts:
        if d not in known:
            return Report(False, f"node assigned to unknown district {d}")
    for d in graph.district_ids:
        n = parts.get(d)
        if not n:
            return Report(False, f"district {d} empty")
        if n > 1:
            return Report(False, f"district {d} disconnected")
        if not graph.pop_lo <= pops[d] <= graph.pop_hi:
            return Report(
                False,
                f"district {d} population {pops[d]} outside [{graph.pop_lo}, {graph.pop_hi}]",
            )
    return Report(True)


def district_votes(graph: CountyGraph, dist: list[int]) -> dict[int, VoteCounts]:
    """Each district's vote sums, districts in id order.

    Every node must be assigned to one of the graph's districts.
    """
    sum_a = dict.fromkeys(graph.district_ids, 0)
    pops = dict.fromkeys(graph.district_ids, 0)
    for d, a, pop in zip(dist, graph.node_a, graph.node_pop):
        sum_a[d] += a
        pops[d] += pop
    return {d: VoteCounts(sum_a[d], pops[d] - sum_a[d]) for d in graph.district_ids}


def plan_stats(graph: CountyGraph, dist: list[int]) -> PlanStats:
    """Efficiency-gap statistics of the plan, districts in id order."""
    report = validate_plan(graph, dist)
    if not report.ok:
        raise ValueError(f"invalid plan: {report.reason}")
    return total_effgap(list(district_votes(graph, dist).values()))


def write_plan_csv(graph: CountyGraph, dist: list[int]) -> str:
    """The plan file: one row per node, in key order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PLAN_COLUMNS)
    writer.writerows([*key, d] for key, d in zip(graph.nodes, dist))
    return buf.getvalue()


def read_plan_csv(graph: CountyGraph, text: str) -> list[int]:
    """A plan file applied to a graph: the district of each node number.

    Every assigned district must be one of the graph's; one left without
    nodes is for ``validate_plan`` to report.
    """
    known = set(graph.district_ids)
    header_error = f"plan header must be {','.join(PLAN_COLUMNS)}"
    index = graph.index
    dist: list[int | None] = [None] * len(index)
    for row_no, (district, county_id, assigned) in _csv_rows(text, PLAN_COLUMNS, header_error):
        try:
            key = (int(district), county_id.strip())
            assigned = int(assigned)
        except ValueError as exc:
            raise IngestError(f"row {row_no}: {exc}") from exc
        i = index.get(key)
        if i is None:
            raise IngestError(f"row {row_no}: unknown node {key[0]}:{key[1]}")
        if dist[i] is not None:
            raise IngestError(f"row {row_no}: duplicate node {key[0]}:{key[1]}")
        if assigned not in known:
            raise IngestError(f"row {row_no}: unknown district {assigned}")
        dist[i] = assigned
    if None in dist:
        raise IngestError("plan does not cover every node")
    return dist
