import csv
import dataclasses
import io
import random
import re

import pytest

from effgap.core import VoteCounts
from effgap.county import (
    IngestError,
    district_votes,
    ingest,
    plan_stats,
    read_plan_csv,
    validate_plan,
    write_plan_csv,
)
from effgap.localsearch import SearchConfig, run
from effgap.synthdata import synth_state_csv
from conftest import (
    TOY_COUNTY_CSV,
    county_grid_csv,
    ingest_reference,
    neighbors,
    serialize_graph,
    validate_plan_reference,
)


def test_toy_ingest_shapes():
    res = ingest(TOY_COUNTY_CSV)
    g, plan = res.graph, res.plan
    assert g.nodes == ((1, "A1"), (1, "A2"), (2, "B1"), (2, "B2"))
    assert g.district_ids == (1, 2) and plan == [1, 1, 2, 2]
    # Democrats are party A.
    assert g.node_a == (60, 20, 10, 40) and g.node_pop == (100, 50, 60, 100)
    assert g.index[(1, "A1")] == 0
    assert district_votes(g, plan) == {1: VoteCounts(80, 70), 2: VoteCounts(50, 110)}
    assert (g.pop_lo, g.pop_hi) == (150, 160)
    assert res.warnings == ()
    assert validate_plan(g, plan).ok


def test_toy_plan_stats():
    res = ingest(TOY_COUNTY_CSV)
    stats = plan_stats(res.graph, res.plan)
    assert stats.kappa == 2
    assert (stats.seats_a, stats.seats_b) == (1, 1)


def test_plan_stats_matches_direct_totals():
    from effgap.core import total_effgap

    res = ingest(TOY_COUNTY_CSV)
    direct = total_effgap([VoteCounts(80, 70), VoteCounts(50, 110)])
    assert plan_stats(res.graph, res.plan) == direct


def test_single_district_stats():
    csv_text = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,40,60,"1:A2"
1,A2,Beta,30,20,"1:A1, 1:B1"
1,B1,Gamma,50,10,"1:A2"
"""
    res = ingest(csv_text)
    stats = plan_stats(res.graph, res.plan)
    assert stats.kappa == 1
    assert stats.per_district[0].votes == VoteCounts(90, 120)


def test_unknown_neighbor_rejected():
    bad = TOY_COUNTY_CSV.replace('"1:A2, 2:B1"', '"1:A2, 9:ZZ"')
    with pytest.raises(IngestError, match="unknown neighbor"):
        ingest(bad)


def test_duplicate_key_rejected():
    dup = TOY_COUNTY_CSV + "1,A1,AlphaAgain,1,1,\"1:A2\"\n"
    with pytest.raises(IngestError, match="duplicate"):
        ingest(dup)


def test_non_numeric_votes_rejected():
    bad = TOY_COUNTY_CSV.replace("40,60", "forty,60")
    with pytest.raises(IngestError, match="row 2"):
        ingest(bad)


def test_header_must_match():
    with pytest.raises(IngestError, match="header"):
        ingest("A,B\n1,2\n")


def test_one_sided_neighbors_symmetrized_with_warning():
    oneside = TOY_COUNTY_CSV.replace('"1:A1, 2:B2"', '"2:B2"', 1)  # A2 drops A1
    res = ingest(oneside)
    assert any("symmetrized" in w for w in res.warnings)
    assert (1, "A2") in neighbors(res.graph, (1, "A1"))
    assert (1, "A1") in neighbors(res.graph, (1, "A2"))


def test_disconnected_graph_rejected():
    csv_text = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,1,1,"1:A2"
1,A2,Beta,1,1,"1:A1"
2,B1,Gamma,1,1,"2:B2"
2,B2,Delta,1,1,"2:B1"
"""
    with pytest.raises(IngestError, match="graph disconnected"):
        ingest(csv_text)


def test_disconnected_initial_district_rejected():
    csv_text = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,1,1,"2:B1"
2,B1,Gamma,1,1,"1:A1, 1:A2"
1,A2,Beta,1,1,"2:B1"
"""
    with pytest.raises(IngestError, match="district 1 disconnected"):
        ingest(csv_text)


def test_disconnected_graph_is_reported_before_a_split_district():
    csv_text = """\
District,County_id,County,Republicans,Democrats,Neighbors
1,A1,Alpha,1,1,"2:B1"
1,A2,Beta,1,1,""
2,B1,Gamma,1,1,"1:A1"
"""
    with pytest.raises(IngestError, match=r"^graph disconnected$"):
        ingest(csv_text)


def test_round_trip_graph_and_plan():
    res = ingest(TOY_COUNTY_CSV)
    text = serialize_graph(res.graph)
    res2 = ingest(text)
    assert res2.graph == res.graph  # ids and bounds included
    assert res2.plan == res.plan
    assert (res2.graph.pop_lo, res2.graph.pop_hi) == (res.graph.pop_lo, res.graph.pop_hi)
    assert serialize_graph(res2.graph) == text  # byte-stable


def test_county_column_is_not_read():
    """Two CSVs that differ only in the County column ingest to equal graphs."""
    base = county_grid_csv(0, side=5, bands=2)
    header, *rows = list(csv.reader(io.StringIO(base)))
    names = ["", "x", "Ünïcode", "a, b", '"quoted"', "1:g0_0", "   "]
    for row_no, row in enumerate(rows):
        row[2] = names[row_no % len(names)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    renamed = buf.getvalue()
    assert renamed != base
    res, res2 = ingest(base), ingest(renamed)
    assert res2.graph == res.graph
    assert (res2.plan, res2.warnings) == (res.plan, res.warnings)


def test_aggregation_consistency():
    res = ingest(TOY_COUNTY_CSV)
    total = res.graph.total_votes()
    summed = VoteCounts(0, 0)
    for votes in district_votes(res.graph, res.plan).values():
        summed = summed + votes
    assert summed == total


def test_plan_csv_round_trip():
    res = ingest(TOY_COUNTY_CSV)
    plan = list(res.plan)
    plan[res.graph.index[(1, "A2")]] = 2  # legal shape change for serialization only
    text = write_plan_csv(res.graph, plan)
    assert "1,A2,2\n" in text
    plan2 = read_plan_csv(res.graph, text)
    assert plan2 == plan
    assert res.plan == [1, 1, 2, 2]  # the ingested plan is not touched


def test_plan_csv_unknown_node():
    res = ingest(TOY_COUNTY_CSV)
    with pytest.raises(IngestError, match="unknown node"):
        read_plan_csv(res.graph, "district,county_id,assigned_district\n9,ZZ,1\n")


def test_plan_csv_unknown_district():
    res = ingest(TOY_COUNTY_CSV)
    text = write_plan_csv(res.graph, res.plan).replace("2,B2,2", "2,B2,7")
    with pytest.raises(IngestError, match=r"^row 5: unknown district 7$"):
        read_plan_csv(res.graph, text)


def test_plan_csv_duplicate_node():
    res = ingest(TOY_COUNTY_CSV)
    text = write_plan_csv(res.graph, res.plan) + "1,A2,2\n"
    with pytest.raises(IngestError, match=r"^row 6: duplicate node 1:A2$"):
        read_plan_csv(res.graph, text)


def test_plan_stats_rejects_an_invalid_plan():
    res = ingest(TOY_COUNTY_CSV)
    plan = [2, 2, 2, 2]
    with pytest.raises(ValueError, match=r"^invalid plan: district 1 empty$"):
        plan_stats(res.graph, plan)


def test_plan_csv_keeps_emptied_district():
    three = (
        "District,County_id,County,Republicans,Democrats,Neighbors\n"
        '1,a,A,5,5,"2:b"\n2,b,B,25,25,"1:a, 3:c"\n3,c,C,50,50,"2:b"\n'
    )
    res = ingest(three)
    # Merging district 1 into 2 stays inside the frozen bounds [10, 100].
    plan = read_plan_csv(res.graph, write_plan_csv(res.graph, res.plan).replace("1,a,1", "1,a,2"))
    assert plan == [2, 2, 3] and res.graph.district_ids == (1, 2, 3)
    report = validate_plan(res.graph, plan)
    assert not report.ok and report.reason == "district 1 empty"


def test_validate_plan_catches_violations():
    res = ingest(TOY_COUNTY_CSV)
    plan = list(res.plan)
    plan[res.graph.index[(1, "A1")]] = 2
    plan[res.graph.index[(1, "A2")]] = 2
    report = validate_plan(res.graph, plan)
    assert not report.ok and "empty" in report.reason


def test_validate_plan_reporting_order():
    """Unknown district first, then districts in id order (district 2 is over its bound here)."""
    res = ingest(TOY_COUNTY_CSV)
    plan = list(res.plan)
    index = res.graph.index
    plan[index[(1, "A1")]] = 2
    plan[index[(1, "A2")]] = 2
    assert validate_plan(res.graph, plan).reason == "district 1 empty"
    plan[index[(2, "B1")]] = 9
    assert validate_plan(res.graph, plan).reason == "node assigned to unknown district 9"


@pytest.mark.parametrize("row, got", [
    ("1,A1,Alpha,40,60", 5),
    ("1,A1,Alpha,40,60,1:A2, 2:B1", 7),  # unquoted Neighbors list
])
def test_county_row_with_wrong_field_count_rejected(row, got):
    lines = TOY_COUNTY_CSV.splitlines()
    lines[2] = row
    lines.insert(1, "")  # blank lines are not counted
    with pytest.raises(IngestError, match=rf"^row 3: expected 6 fields, got {got}$"):
        ingest("\n".join(lines) + "\n")


def test_county_row_the_csv_module_cannot_read_rejected():
    lines = TOY_COUNTY_CSV.splitlines()
    lines[2] = lines[2].replace("Beta", "Be\rta")
    lines.insert(1, "")  # blank lines are not counted
    with pytest.raises(IngestError, match=r"^row 3: new-line character seen in unquoted field"):
        ingest("\n".join(lines) + "\n")


def test_plan_row_the_csv_module_cannot_read_rejected():
    res = ingest(TOY_COUNTY_CSV)
    text = write_plan_csv(res.graph, res.plan).replace("1,A2,1", "1,A2\r,1")
    with pytest.raises(IngestError, match=r"^row 3: new-line character seen in unquoted field"):
        read_plan_csv(res.graph, text)


@pytest.mark.parametrize("token", ["1: A2", "1 :A2", " 1 : A2 ", "01:A2"])
def test_neighbor_token_spacing_names_the_same_node(token):
    res = ingest(TOY_COUNTY_CSV.replace('"1:A2, 2:B1"', f'"{token}, 2:B1"'))
    assert neighbors(res.graph, (1, "A1")) == ((1, "A2"), (2, "B1"))
    assert res.warnings == ()


@pytest.mark.parametrize("row, got", [("1", 1), ("1,A1,1,2", 4)])
def test_plan_row_with_wrong_field_count_rejected(row, got):
    res = ingest(TOY_COUNTY_CSV)
    text = write_plan_csv(res.graph, res.plan).replace("1,A2,1", row)
    with pytest.raises(IngestError, match=rf"^row 3: expected 3 fields, got {got}$"):
        read_plan_csv(res.graph, text)


def _outcome(parse, text):
    """Everything ingest reports: the node tables in order, their numbered
    adjacency, the plan, warnings, or the error."""
    try:
        res = parse(text)
    except Exception as exc:  # the error type is part of the comparison
        return type(exc), str(exc)
    g = res.graph
    graph = (g.nodes, g.node_a, g.node_pop, g.adj, g.district_ids, g.pop_lo, g.pop_hi)
    return graph, res.plan, res.warnings


def _mutated_county_csv(rng: random.Random, base: str) -> str:
    """`base` with one to three random edits; every row keeps six fields."""
    header, *rows = list(csv.reader(io.StringIO(base)))
    blank_after: set[int] = set()
    for _ in range(rng.randint(1, 3)):
        if not rows:
            break
        row = rng.choice(rows)
        tokens = [t.strip() for t in row[5].split(",") if t.strip()]
        kind = rng.randrange(14)
        if kind <= 2 and tokens:  # one-sided listing
            tokens.remove(rng.choice(tokens))
        elif kind == 3:  # another spelling of a known key, or a repeat
            d, cid = rng.choice(rows)[:2]
            tokens.append(rng.choice([f"0{d}:{cid}", f" {d} :{cid}", f"+{d}:{cid}", f"{d}:{cid}"]))
        elif kind == 4:  # a token that is unknown, malformed or the node itself
            d, cid = row[:2]
            tokens.append(rng.choice(
                ["99:ZZ", f"{d}:{cid}x", "abc", f"{d}:", f":{cid}", f"x:{cid}", f"{d}:{cid}"]
            ))
        elif kind == 5:
            blank_after.add(rng.randrange(-1, len(rows)))
        elif kind == 6:  # duplicate key
            rows.insert(rng.randrange(len(rows) + 1), list(row))
        elif kind == 7:
            row[rng.choice([3, 4])] = rng.choice(["x", "", "-5", "1.5", " 7 ", "+3", "0"])
        elif kind == 8:
            row[1] = rng.choice([f" {row[1]} ", f"{row[1]}\t", "", "a:b", "a,b"])
        elif kind == 9:
            row[0] = rng.choice([f"0{row[0]}", f" {row[0]}", "x", str(int(row[0]) + 1)])
        elif kind == 10:
            tokens = []
        elif kind == 11:
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 12:  # a node moved to another district, renamed everywhere
            old = f"{row[0]}:{row[1]}"
            row[0] = rng.choice(rows)[0]
            for other in rows:
                other[5] = ", ".join(
                    f"{row[0]}:{row[1]}" if t == old else t for t in other[5].split(", ")
                )
        else:  # a node cut off from the graph, or every row removed
            old = f"{row[0]}:{row[1]}"
            for other in rows:
                other[5] = ", ".join(t for t in other[5].split(", ") if t != old)
            tokens = []
            if rng.random() < 0.1:
                rows.clear()
        row[5] = ", ".join(tokens)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if -1 in blank_after:
        buf.write("\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        assert len(row) == 6
        writer.writerow(row)
        if i in blank_after:
            buf.write("\n")
    return buf.getvalue()


def test_ingest_matches_reference_on_mutated_inputs():
    """Same nodes, plan, warnings and errors as the DictReader parser, and
    every plan ingest accepts passes ``validate_plan``."""
    rng = random.Random(8)
    bases = [county_grid_csv(seed, side, 2) for seed in range(4) for side in (4, 5, 6)]
    bases.append(synth_state_csv("WI", 0))
    tally = {"valid": 0, "warned": 0, "error": 0}
    for trial in range(2400):
        base = bases[-1] if trial % 40 == 0 else rng.choice(bases[:-1])
        text = _mutated_county_csv(rng, base)
        expected = _outcome(ingest_reference, text)
        assert _outcome(ingest, text) == expected, text
        if isinstance(expected[0], type):
            tally["error"] += 1
        else:
            tally["valid"] += 1
            tally["warned"] += bool(expected[2])
            res = ingest(text)
            assert validate_plan(res.graph, res.plan).ok, text
    assert tally["valid"] >= 300 and tally["warned"] >= 50 and tally["error"] >= 300, tally


def _break_plan(rng: random.Random, graph, plan):
    """(graph, plan): a copy of `plan` with one random kind of damage.

    Boundary moves (the last kind) may leave the plan valid or break the
    population bounds, which the returned graph may tighten; the other
    kinds each give a defect the check reports, on `graph` as it is.
    """
    dist = list(plan)
    i = rng.randrange(len(dist))
    d = dist[i]
    kind = rng.randrange(6)
    if kind == 0:  # a node dropped from the list, or one too many
        if rng.random() < 0.5:
            del dist[i]
        else:
            dist.append(d)
    elif kind == 1:
        dist[i] = max(graph.district_ids) + 1
    elif kind == 2:  # merge a whole district into another
        other = rng.choice([x for x in graph.district_ids if x != d])
        dist[:] = [other if x == d else x for x in dist]
    elif kind == 3:  # a node moved to any other district
        dist[i] = rng.choice([x for x in graph.district_ids if x != d])
    elif kind == 4:  # a node moved to a district it does not touch
        far = [x for x in graph.district_ids
               if x != d and all(dist[j] != x for j in graph.adj[i])]
        dist[i] = rng.choice(far)
    else:
        for _ in range(rng.randint(1, 3)):  # boundary moves, then maybe tighter bounds
            j = rng.randrange(len(dist))
            targets = sorted({dist[nb] for nb in graph.adj[j]} - {dist[j]})
            if targets:
                dist[j] = rng.choice(targets)
        if rng.random() < 0.5:
            pops = sorted(v.population() for v in district_votes(graph, dist).values())
            lo, hi = rng.choice([(pops[1], pops[-1]), (pops[0], pops[-2])])
            graph = dataclasses.replace(graph, pop_lo=lo, pop_hi=hi)
    return graph, dist


def test_validate_plan_matches_reference_on_broken_plans():
    rng = random.Random(8)
    reasons = {}
    for text in (synth_state_csv("WI", 0), county_grid_csv(3), synth_state_csv("TX", 0)):
        res = ingest(text)
        for _ in range(300):
            graph, plan = _break_plan(rng, res.graph, res.plan)
            report = validate_plan(graph, plan)
            assert report == validate_plan_reference(graph, plan)
            kind = "ok" if report.ok else re.sub(r"-?\d+", "N", report.reason)
            reasons[kind] = reasons.get(kind, 0) + 1
    assert set(reasons) >= {
        "assignment does not cover the graph",
        "node assigned to unknown district N",
        "district N empty",
        "district N disconnected",
        "district N population N outside [N, N]",
    }, reasons


def test_unknown_ids_are_reported_in_node_order():
    """Of two unknown ids, the one on the lower node is named, whichever is smaller."""
    res = ingest(synth_state_csv("WI", 0))
    graph, top = res.graph, max(res.graph.district_ids)
    for i, j in ((0, 95), (3, 40), (57, 58)):
        for low, high in ((top + 1, top + 2), (top + 2, top + 1), (-1, top + 1)):
            dist = list(res.plan)
            dist[i], dist[j] = low, high
            report = validate_plan(graph, dist)
            assert report.reason == f"node assigned to unknown district {low}"
            assert report == validate_plan_reference(graph, dist)


def _scaled_csv(text: str, c: int) -> str:
    """The county CSV with every row's Democrats and Republicans times c."""
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        row[3], row[4] = str(c * int(row[3])), str(c * int(row[4]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _scaled_reason(reason: str | None, c: int) -> str | None:
    """A report's reason with the populations in it times c."""
    m = re.fullmatch(r"district (-?\d+) population (\d+) outside \[(\d+), (\d+)\]", reason or "")
    if m is None:
        return reason
    d, pop, lo, hi = map(int, m.groups())
    return f"district {d} population {c * pop} outside [{c * lo}, {c * hi}]"


def test_county_path_scales_with_the_unit_of_population():
    """Votes times c give the same graph, plan, verdicts and search, with
    every population, bound and gap times c."""
    cfg = SearchConfig(mu=100, k=20, seed=11, replicas=2)
    reasons = set()
    for code in ("WI", "VA", "TX", "PA"):
        text = synth_state_csv(code, 0)
        base = ingest(text)
        g = base.graph
        found = run(g, base.plan, cfg)
        for c in range(2, 8):
            scaled = ingest(_scaled_csv(text, c))
            h = scaled.graph
            assert (h.nodes, h.adj, h.district_ids, scaled.plan) == (g.nodes, g.adj, g.district_ids, base.plan)
            assert h.node_pop == tuple(c * p for p in g.node_pop)
            assert (h.pop_lo, h.pop_hi) == (c * g.pop_lo, c * g.pop_hi)
            rng_g, rng_h = random.Random(c), random.Random(c)
            for _ in range(20):
                broken_g, plan_g = _break_plan(rng_g, g, base.plan)
                broken_h, plan_h = _break_plan(rng_h, h, base.plan)
                assert plan_h == plan_g
                report = validate_plan(broken_g, plan_g)
                assert validate_plan(broken_h, plan_h) == dataclasses.replace(
                    report, reason=_scaled_reason(report.reason, c))
                reasons.add("ok" if report.ok else re.sub(r"-?\d+", "N", report.reason))
            result = run(h, scaled.plan, cfg)
            assert result.best_replica == found.best_replica
            for t, u in zip(found.traces, result.traces, strict=True):
                assert (u.initial_scaled, u.final_scaled) == (c * t.initial_scaled, c * t.final_scaled)
                assert [(m.iteration, m.node, m.from_district, m.to_district) for m in u.moves] == [
                    (m.iteration, m.node, m.from_district, m.to_district) for m in t.moves]
                assert [(m.before_scaled, m.after_scaled) for m in u.moves] == [
                    (c * m.before_scaled, c * m.after_scaled) for m in t.moves]
                assert (u.final_plan, u.stopped_at) == (t.final_plan, t.stopped_at)
    assert {"ok", "district N disconnected", "district N population N outside [N, N]"} <= reasons, reasons
