"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and a second line for criterion 9, the search against the exact optimum.

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
    _masks_to_partition,
    _optimum,
    brute_force_opt,
    gen_hardness_instance,
    subset_sum_oracle,
    validate_partition,
)
from effgap.localsearch import SearchConfig, run
from effgap.synthdata import STATE_PROFILES, synth_state_csv
from effgap.yconvex import is_yconvex_partition, solve_yconvex
from conftest import (
    cells_connected,
    county_index,
    enumerate_equipartitions,
    oracle_graphs,
    partition_vote_totals,
    random_column_polygon,
    random_even_rect,
    random_polygon,
    uniform_rect,
)

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
        assert res.value is not None
        if subset_sum_oracle(values):
            assert res.value == 0, values
            yes += 1
        else:
            assert res.value == 2 * inst.values_total, values
        agreements += 1
    brute_elapsed = time.perf_counter() - started

    # The y-convex DP on 210 larger gadgets, values up to 256: every column
    # of a gadget is one run, so the DP applies, and its optimum must still
    # decide the split.
    started = time.perf_counter()
    dp_yes = decoys_seen = 0
    for i in range(210):
        n = rng.randint(1, 16) if i < 200 else 17 + (i - 200) % 8
        if i % 3 == 0 and n >= 2:
            # Planted split: the last value closes a random signed sum.
            last = 0
            while not last:
                values = [rng.randint(1, 64) for _ in range(n - 1)]
                last = abs(sum(rng.choice((1, -1)) * v for v in values))
            values.append(last)
            rng.shuffle(values)
        else:
            values = [rng.randint(1, 64) for _ in range(n)]
        values = [4 * v for v in values]
        inst = gen_hardness_instance(values, decoy_count=rng.randint(0, 3), seed=i)
        res = solve_yconvex(inst.polygon, inst.kappa)
        assert res.value is not None, values
        if subset_sum_oracle(values):
            assert res.value == 0, values
            dp_yes += 1
        else:
            assert res.value == 2 * inst.values_total, values
        total = inst.polygon.total_votes()
        attainable = {v.value for v in attainable_values(total.party_a, total.population(), inst.kappa)}
        assert Fraction(res.value, 2) in attainable, values
        assert validate_partition(inst.polygon, res.partition, inst.kappa).ok, values
        assert is_yconvex_partition(res.partition), values
        labels = res.partition.labels
        for cell in inst.decoy_cells:
            assert [c for c, lab in labels.items() if lab == labels[cell]] == [cell], values
        decoys_seen += len(inst.decoy_cells)
    dp_elapsed = time.perf_counter() - started
    ok = agreements == 50 and brute_elapsed < 120 and dp_elapsed < 120
    report(
        4, ok,
        f"50 gadgets (n <= 5), optimum 0 iff an equal split exists ({yes} yes), {brute_elapsed:.1f}s; "
        f"y-convex DP on 210 gadgets (n <= 24, {decoys_seen} decoys), the same ({dp_yes} yes), "
        f"{dp_elapsed:.1f}s",
    )


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


def _yconvex_agreement(instances) -> tuple[int, int]:
    """Checks the DP against the oracle restricted to y-convex partitions on
    each (polygon, kappa); returns how many are feasible and on how many
    the restriction raises the optimum above the unrestricted one."""
    feasible = above = 0
    for p, kappa in instances:
        res = solve_yconvex(p, kappa)
        best = ybest = None
        for q in enumerate_equipartitions(p, kappa):
            value = total_effgap(partition_vote_totals(p, q, kappa)).total_scaled_abs
            best = value if best is None else min(best, value)
            if is_yconvex_partition(q):
                ybest = value if ybest is None else min(ybest, value)
        assert (ybest is None) == (res.value is None)
        if ybest is not None:
            assert res.value == ybest
            assert validate_partition(p, res.partition, kappa).ok
            assert is_yconvex_partition(res.partition)
            feasible += 1
            above += ybest > best
    return feasible, above


def test_criterion_6_yconvex_matches_oracle():
    """Single-run polygons, then 3x3 and 3x4 rectangles, where some
    equipartitions are not y-convex and the restriction can bite."""
    started = time.perf_counter()
    rng = random.Random(1006)
    feasible, _ = _yconvex_agreement(
        (random_column_polygon(rng, max_cells=12, uniform=(i % 2 == 0)), rng.choice([2, 3])) for i in range(100)
    )
    rng = random.Random(1016)
    rect_feasible, above = _yconvex_agreement((random_even_rect(rng, 3, 3 + i % 2), 2) for i in range(200))
    elapsed = time.perf_counter() - started
    ok = feasible >= 10 and above >= 1 and elapsed < 300
    report(6, ok, f"exact agreement on 100 instances ({feasible} feasible) and 200 rectangles "
                  f"({rect_feasible} feasible, {above} with the y-convex optimum above the unrestricted one), "
                  f"{elapsed:.1f}s")


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
            assert oracle.value is not None
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
            replay = list(res.plan)
            last = trace.initial_scaled
            for mv in trace.moves:
                assert mv.before_scaled == last and mv.after_scaled < mv.before_scaled
                replay[res.graph.index[mv.node]] = mv.to_district
                assert validate_plan(res.graph, replay).ok
                last = mv.after_scaled
            assert last == trace.final_scaled
    report(8, True, "gap non-increasing, every intermediate plan valid, reruns byte-identical "
                    f"on toy + {len(STATES)} synthetic states")


def test_criterion_9_search_reduces_gap():
    # Fallback form: the published spreadsheets are not obtainable here, so
    # synthesized state-scale graphs matching the published vote shares and
    # seat counts stand in, and the requirement is a >= 50% relative
    # reduction.  The gap the published run reached and the published-run
    # thresholds are reported as context.  Every replica must also prove a
    # local optimum and stop before mu runs out.
    thresholds_bp = {"WI": 600, "TX": 400, "VA": 600, "PA": 1200}
    details = []
    ok = True
    for code in STATES:
        res = ingest(synth_state_csv(code))
        out = run(res.graph, res.plan, SearchConfig(mu=100, k=20, seed=20260810, replicas=10))
        best_plan = out.traces[out.best_replica].final_plan
        stops = [trace.stopped_at for trace in out.traces]
        before = plan_stats(res.graph, res.plan).normalized
        after = plan_stats(res.graph, best_plan).normalized
        assert validate_plan(res.graph, best_plan).ok
        reduction = 1 - after / before
        within_published = after * 10000 <= thresholds_bp[code]
        all_stopped = None not in stops
        ok = ok and reduction >= Fraction(1, 2) and all_stopped
        stopped = f"stopped at {min(stops)}-{max(stops)}" if all_stopped else f"{stops.count(None)} never stopped"
        details.append(
            f"{code} {float(before)*100:.2f}%->{float(after)*100:.2f}% "
            f"(published run {STATE_PROFILES[code].published_new_bp / 100:.2f}%, "
            f"cut {float(reduction)*100:.0f}%, published-threshold {'met' if within_published else 'missed'}, "
            f"{stopped})"
        )
    report(9, ok, "; ".join(details))


def test_search_never_beats_the_exact_optimum():
    """The exhaustive oracle, run on a county graph's own mask index in the
    plan's frozen window, is a lower bound on every replica's final gap (its
    plan in that window), and each of its optima is a valid plan whose gap
    is that optimum.  How often the search reaches the optimum is reported,
    with no threshold."""
    graphs = oracle_graphs()
    hits = still = optima = 0
    for seed, text in enumerate(graphs):
        res = ingest(text)
        graph, plan = res.graph, res.plan
        idx = county_index(graph)
        best, argmin = _optimum(idx, len(graph.district_ids), graph.pop_lo, graph.pop_hi)
        assert best is not None  # the ingested plan is in its own window
        cfg = SearchConfig(mu=100, k=min(8, len(graph.nodes) - 1), seed=seed, replicas=2)
        result = run(graph, plan, cfg)
        for trace in result.traces:
            assert validate_plan(graph, trace.final_plan).ok, seed
            assert best <= trace.final_scaled <= trace.initial_scaled, (seed, best)
        for masks in argmin:
            labels = _masks_to_partition(idx, masks).labels  # class j + 1 is mask j
            opt = [graph.district_ids[labels[key] - 1] for key in graph.nodes]
            assert validate_plan(graph, opt).ok, (seed, masks)
            assert plan_stats(graph, opt).total_scaled_abs == best, (seed, masks)
        optima += len(argmin)
        hits += result.traces[result.best_replica].final_scaled == best
        still += not any(trace.moves for trace in result.traces)
    report(9, True, f"search never beat the exact optimum on {len(graphs)} oracle graphs "
                    f"({optima} optima checked); it reached the optimum on {hits} and made no move on {still}")


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
