import pytest

from effgap.core import VoteCounts
from effgap.county import (
    IngestError,
    ingest,
    initial_plan,
    plan_stats,
    read_plan_csv,
    serialize_graph,
    validate_plan,
    write_plan_csv,
)
from conftest import TOY_COUNTY_CSV


def test_toy_ingest_shapes():
    res = ingest(TOY_COUNTY_CSV)
    g, plan = res.graph, res.plan
    assert len(g.nodes) == 4
    assert plan.kappa == 2 and plan.district_ids == (1, 2)
    # Democrats are party A.
    assert g.nodes[(1, "A1")].votes == VoteCounts(60, 40)
    assert plan.district_votes[1] == VoteCounts(80, 70)
    assert plan.district_votes[2] == VoteCounts(50, 110)
    assert (plan.pop_lo, plan.pop_hi) == (150, 160)
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
    direct = total_effgap([res.plan.district_votes[1], res.plan.district_votes[2]])
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
    assert (1, "A2") in res.graph.neighbors((1, "A1"))
    assert (1, "A1") in res.graph.neighbors((1, "A2"))


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


def test_round_trip_graph_and_plan():
    res = ingest(TOY_COUNTY_CSV)
    text = serialize_graph(res.graph)
    res2 = ingest(text)
    assert res2.graph == res.graph
    assert res2.plan.assignment == res.plan.assignment
    assert (res2.plan.pop_lo, res2.plan.pop_hi) == (res.plan.pop_lo, res.plan.pop_hi)
    assert serialize_graph(res2.graph) == text  # byte-stable


def test_aggregation_consistency():
    res = ingest(TOY_COUNTY_CSV)
    total = res.graph.total_votes()
    summed = VoteCounts(0, 0)
    for d in res.plan.district_ids:
        summed = summed + res.plan.district_votes[d]
    assert summed == total


def test_plan_csv_round_trip():
    res = ingest(TOY_COUNTY_CSV)
    plan = res.plan.copy()
    plan.move(res.graph, (1, "A2"), 2)  # legal shape change for serialization only
    text = write_plan_csv(plan)
    plan2 = read_plan_csv(res.graph, text)
    assert plan2.assignment == plan.assignment
    base = initial_plan(res.graph)
    assert (plan2.pop_lo, plan2.pop_hi) == (base.pop_lo, base.pop_hi)


def test_plan_csv_unknown_node():
    res = ingest(TOY_COUNTY_CSV)
    with pytest.raises(IngestError, match="unknown node"):
        read_plan_csv(res.graph, "district,county_id,assigned_district\n9,ZZ,1\n")


def test_plan_csv_unknown_district():
    res = ingest(TOY_COUNTY_CSV)
    text = write_plan_csv(res.plan).replace("2,B2,2", "2,B2,7")
    with pytest.raises(IngestError, match=r"^row 5: unknown district 7$"):
        read_plan_csv(res.graph, text)


def test_plan_csv_keeps_emptied_district():
    three = (
        "District,County_id,County,Republicans,Democrats,Neighbors\n"
        '1,a,A,5,5,"2:b"\n2,b,B,25,25,"1:a, 3:c"\n3,c,C,50,50,"2:b"\n'
    )
    res = ingest(three)
    # Merging district 1 into 2 stays inside the frozen bounds [10, 100].
    plan = read_plan_csv(res.graph, write_plan_csv(res.plan).replace("1,a,1", "1,a,2"))
    assert plan.district_ids == (1, 2, 3)
    report = validate_plan(res.graph, plan)
    assert not report.ok and report.reason == "district 1 empty"


def test_validate_plan_catches_violations():
    res = ingest(TOY_COUNTY_CSV)
    plan = res.plan.copy()
    plan.move(res.graph, (1, "A1"), 2)
    plan.move(res.graph, (1, "A2"), 2)
    report = validate_plan(res.graph, plan)
    assert not report.ok and "empty" in report.reason


def test_validate_plan_reporting_order():
    """Unknown district first, then per district: empty before a stale member cache."""
    res = ingest(TOY_COUNTY_CSV)
    plan = res.plan.copy()
    plan.assignment[(1, "A1")] = 2  # caches left as they were
    assert validate_plan(res.graph, plan).reason == "district 1 member cache inconsistent"
    plan.members[1] = set()
    assert validate_plan(res.graph, plan).reason == "district 1 empty"
    plan.assignment[(2, "B1")] = 9
    assert validate_plan(res.graph, plan).reason == "node assigned to unknown district 9"
