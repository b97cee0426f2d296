"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 9 and 10 run against the synthetic state fixtures because the
published county spreadsheets are no longer reliably downloadable; the
fixtures reproduce the published vote shares, seat splits and starting
gaps exactly, and the search criterion is the property-based fallback
(at least a 50% relative reduction in the starting gap).
"""

import random
import time
from fractions import Fraction

from effgap.canonical import build_decomposition, solve_two_near_stable
from effgap.core import (
    VoteCounts,
    attainable_values,
    margin_identity,
    total_effgap,
)
from effgap.county import ingest, plan_stats, validate_plan
from effgap.grid import (
    brute_force_opt,
    enumerate_equipartitions,
    gen_hardness_instance,
    partition_vote_totals,
    subset_sum_oracle,
    validate_partition,
)
from effgap.localsearch import SearchConfig, run
from effgap.synthdata import STATE_PROFILES, synth_state_csv
from effgap.yconvex import is_yconvex_partition, solve_yconvex
from conftest import cells_connected, random_column_polygon, random_polygon, uniform_rect

STATES = ("WI", "TX", "VA", "PA")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _criterion1_corpus():
    """200 random instances (<= 10 cells, kappa in {2, 3}) with all their
    exact equipartitions; shared by criteria 1 and 3."""
    rng = random.Random(1001)
    corpus = []
    for i in range(200):
        if i % 4 == 0:
            m, n = rng.choice([(2, 3), (2, 4), (3, 3), (2, 5)])
            kappa = 3 if (m * n) % 2 else rng.choice([2] if (m * n) % 3 else [2, 3])
            p = uniform_rect(m, n, pop=1,
                             a_cells=[(r, c) for r in range(m) for c in range(n)
                                      if rng.random() < 0.5])
        elif i % 2 == 0:
            size = rng.choice([4, 6, 8, 9, 10])
            kappa = 3 if size % 2 else rng.choice([2] if size % 3 else [2, 3])
            p = random_polygon(rng, size, uniform=True)
        else:
            size = rng.randint(4, 10)
            kappa = rng.choice([2, 3])
            p = random_polygon(rng, size, max_pop=4)
        partitions = list(enumerate_equipartitions(p, kappa))
        corpus.append((p, kappa, partitions))
    return corpus


_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _criterion1_corpus()
    return _CORPUS


def test_criterion_1_value_set_membership():
    started = time.perf_counter()
    checked = 0
    for p, kappa, partitions in _corpus():
        total = p.total_votes()
        values = attainable_values(total.party_a, total.population(), kappa)
        by_value = {v.value: v.z_indices for v in values}
        for q in partitions:
            stats = total_effgap(partition_vote_totals(p, q, kappa))
            realized = Fraction(stats.total_scaled_abs, 2)
            assert realized in by_value, (p, q)
            # The realized index equals the number of districts party A wins,
            # and the winner-count bound holds.
            assert stats.seats_a in by_value[realized]
            z = stats.seats_a
            pop = total.population()
            assert Fraction(pop, 2 * kappa) * z <= total.party_a
            assert total.party_a <= Fraction(pop, 2 * kappa) * z + Fraction(pop, 2)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 200 and elapsed < 60
    report(1, ok, f"{checked} equipartitions over 200 instances, exact membership, {elapsed:.1f}s")


def test_criterion_2_spacing_bound():
    rng = random.Random(1002)
    for _ in range(1000):
        pop = rng.randint(1, 10**6)
        a = rng.randint(0, pop)
        kappa = rng.randint(1, 12)
        values = [v.value for v in attainable_values(a, pop, kappa)]
        for lo, hi in zip(values, values[1:]):
            assert hi - lo <= Fraction(pop, kappa)
    report(2, True, "1000 random (A, Pop, kappa) triples, consecutive gaps <= Pop/kappa exactly")


def test_criterion_3_margin_identity():
    checked = 0
    for p, kappa, partitions in _corpus():
        total = p.total_votes()
        if total.population() == 0:
            continue
        for q in partitions:
            stats = total_effgap(partition_vote_totals(p, q, kappa))
            _, _, normalized = margin_identity(stats, total)
            assert normalized == stats.normalized
            checked += 1
    report(3, checked > 0, f"identity exact on {checked} equipartitions from criterion 1")


def test_criterion_4_hardness_soundness_completeness():
    started = time.perf_counter()
    rng = random.Random(1004)
    agreements = 0
    yes = 0
    for i in range(50):
        if i % 3 == 0:
            # Planted equal split: {v1, v2, v1 + v2} always halves evenly.
            v1, v2 = rng.randint(1, 20), rng.randint(1, 20)
            values = [4 * v1, 4 * v2, 4 * (v1 + v2)]
        else:
            n = rng.randint(1, 5)
            values = [4 * rng.randint(1, 40) for _ in range(n)]
        inst = gen_hardness_instance(values)
        res = brute_force_opt(inst.polygon, inst.kappa, cell_limit=18)
        assert res.feasible
        if subset_sum_oracle(values):
            assert res.value == 0, values
            yes += 1
        else:
            assert res.value == 2 * inst.values_total, values
        agreements += 1
    elapsed = time.perf_counter() - started
    ok = agreements == 50 and elapsed < 120
    report(4, ok, f"50 gadgets (n <= 5), optimum 0 iff an equal split exists ({yes} yes), {elapsed:.1f}s")


def test_criterion_5_decoy_isolation():
    rng = random.Random(1005)
    inspected = 0
    for decoys in (1, 2):
        for _ in range(3):
            n = rng.randint(2, 3)
            values = [4 * rng.randint(1, 10) for _ in range(n)]
            inst = gen_hardness_instance(values, decoy_count=decoys, seed=rng.randrange(10))
            partitions = list(enumerate_equipartitions(inst.polygon, inst.kappa))
            assert partitions, "generated instance must stay feasible"
            for q in partitions:
                for cell in inst.decoy_cells:
                    label = q.labels[cell]
                    members = [c for c, lab in q.labels.items() if lab == label]
                    assert members == [cell]
                inspected += 1
    report(5, inspected > 0, f"decoys are singleton districts in all {inspected} equipartitions")


def test_criterion_6_yconvex_matches_oracle():
    started = time.perf_counter()
    rng = random.Random(1006)
    feasible = 0
    for i in range(100):
        p = random_column_polygon(rng, max_cells=12, uniform=(i % 2 == 0))
        kappa = rng.choice([2, 3])
        res = solve_yconvex(p, kappa)
        best = None
        for q in enumerate_equipartitions(p, kappa):
            if is_yconvex_partition(q):
                value = total_effgap(partition_vote_totals(p, q, kappa)).total_scaled_abs
                best = value if best is None else min(best, value)
        assert (best is None) == (not res.feasible)
        if best is not None:
            assert res.value == best
            assert validate_partition(p, res.partition, kappa).ok
            assert is_yconvex_partition(res.partition)
            feasible += 1
    elapsed = time.perf_counter() - started
    ok = feasible >= 10 and elapsed < 300
    report(6, ok, f"exact agreement on 100 instances ({feasible} feasible), {elapsed:.1f}s")


def test_criterion_7_canonical_machinery():
    started = time.perf_counter()
    rng = random.Random(1007)
    oracle_checked = 0
    for i in range(20):
        m = rng.randint(3, 6)
        n = rng.randint(3, 6)
        pop = rng.randint(1, 3)
        p = uniform_rect(m, n, pop=pop,
                         a_cells=[(r, c) for r in range(m) for c in range(n)
                                  if rng.random() < 0.5])
        # Re-randomize the per-cell split so cells are not all-or-nothing.
        votes = {}
        for cell in p.votes:
            a = rng.randint(0, pop)
            votes[cell] = VoteCounts(a, pop - a)
        from effgap.grid import GridPolygon

        p = GridPolygon(m, n, votes)
        st = solve_two_near_stable(p, Fraction(1, 3))
        assert st.t == 3
        assert st.delta_achieved <= st.delta_bound
        side1 = {c for c, lab in st.plan.partition.labels.items() if lab == 1}
        side2 = set(p.votes) - side1
        assert cells_connected(side1) and cells_connected(side2)
        pops = [v.population() for v in st.plan.votes]
        assert st.window[0] <= min(pops) and max(pops) <= st.window[1]
        # Perturbation envelope: plans can differ from a window-optimal one
        # only on non-interior cells (all of them at t = 3), plus a winner
        # flip allowance per district.
        decomp = build_decomposition(p, 3)
        interior = set().union(*decomp.interiors)
        out_a = sum(p.votes[c].party_a for c in p.votes if c not in interior)
        out_pop = sum(p.votes[c].population() for c in p.votes if c not in interior)
        envelope = 8 * out_a + 6 * out_pop + 2 * p.total_votes().population()
        if p.size <= 18:
            oracle = brute_force_opt(p, 2, cell_limit=18, window=st.window)
            assert oracle.feasible
            # Normal-form plans are a subset of all in-window plans.
            assert st.plan.value >= oracle.value
            bound = oracle.value + envelope
            oracle_checked += 1
        else:
            bound = envelope  # optimum is at least 0
        assert st.plan.value <= bound
    elapsed = time.perf_counter() - started
    ok = oracle_checked >= 5 and elapsed < 600
    report(7, ok, f"20 rectangles, valid near plans within the envelope "
                  f"({oracle_checked} vs oracle), {elapsed:.1f}s")


def test_criterion_8_monotone_deterministic():
    from conftest import TOY_COUNTY_CSV

    datasets = [("toy", TOY_COUNTY_CSV)] + [(s, synth_state_csv(s)) for s in STATES]
    for name, text in datasets:
        res = ingest(text)
        cfg = SearchConfig(mu=30, k=min(20, len(res.graph.nodes) - 1), seed=88, replicas=2)
        first = run(res.graph, res.plan, cfg)
        second = run(res.graph, res.plan, cfg)
        assert [t.to_lines() for t in first.traces] == [t.to_lines() for t in second.traces]
        for trace in first.traces:
            replay = res.plan.copy()
            last = trace.initial_scaled
            for mv in trace.moves:
                assert mv.before_scaled == last and mv.after_scaled < mv.before_scaled
                replay.move(res.graph, mv.node, mv.to_district)
                assert validate_plan(res.graph, replay).ok
                last = mv.after_scaled
            assert last == trace.final_scaled
    report(8, True, "gap non-increasing, every intermediate plan valid, reruns byte-identical "
                    f"on toy + {len(STATES)} synthetic states")


def test_criterion_9_search_reduces_gap():
    # Fallback form: the published spreadsheets are not obtainable here, so
    # synthesized state-scale graphs matching the published vote shares and
    # seat counts stand in, and the requirement is a >= 50% relative
    # reduction.  The published-run thresholds are reported as context.
    thresholds_bp = {"WI": 600, "TX": 400, "VA": 600, "PA": 1200}
    details = []
    ok = True
    for code in STATES:
        res = ingest(synth_state_csv(code))
        started = time.perf_counter()
        out = run(res.graph, res.plan, SearchConfig(mu=100, k=20, seed=20260810, replicas=10))
        elapsed = time.perf_counter() - started
        before = plan_stats(res.graph, res.plan).normalized
        after = plan_stats(res.graph, out.best_plan).normalized
        assert validate_plan(res.graph, out.best_plan).ok
        reduction = 1 - after / before
        within_published = after * 10000 <= thresholds_bp[code]
        ok = ok and reduction >= Fraction(1, 2) and elapsed < 180
        details.append(
            f"{code} {float(before)*100:.2f}%->{float(after)*100:.2f}% "
            f"(cut {float(reduction)*100:.0f}%, published-threshold {'met' if within_published else 'missed'}, "
            f"{elapsed:.1f}s)"
        )
    report(9, ok, "; ".join(details))


def test_criterion_10_ingestion_reproduces_table():
    details = []
    ok = True
    for code in STATES:
        profile = STATE_PROFILES[code]
        res = ingest(synth_state_csv(code))
        stats = plan_stats(res.graph, res.plan)
        gap_bp = stats.normalized * 10000
        seats_ok = (stats.seats_a, stats.seats_b) == (
            profile.seats_a, profile.kappa - profile.seats_a
        )
        total = res.graph.total_votes()
        share_ok = Fraction(total.party_a, total.population()) == Fraction(profile.share_bp, 10000)
        gap_ok = abs(gap_bp - profile.effgap_bp) <= 5  # +/- 0.05 percentage points
        ok = ok and seats_ok and share_ok and gap_ok
        details.append(f"{code} gap {float(gap_bp)/100:.2f}% (target {profile.effgap_bp/100:.2f}%)")
    report(10, ok, "; ".join(details))
