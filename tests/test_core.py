import random
from fractions import Fraction

import pytest

from effgap.core import (
    VoteCounts,
    a_wins,
    attainable_values,
    district_effgap,
    margin_identity,
    total_effgap,
    wasted_votes,
    won_by_a,
)


def wasted_votes_oracle(a: int, b: int) -> Fraction:
    """Independent wasted-vote arithmetic: winner wastes votes beyond half,
    loser wastes everything.  Returns wastedA - wastedB."""
    pop = a + b
    if 2 * a >= pop:  # ties go to A
        wasted_a = Fraction(a) - Fraction(pop, 2)
        wasted_b = Fraction(b)
    else:
        wasted_a = Fraction(a)
        wasted_b = Fraction(b) - Fraction(pop, 2)
    return wasted_a - wasted_b


def test_winner_majority_and_tie():
    assert a_wins(VoteCounts(60, 40))
    assert a_wins(VoteCounts(50, 50))  # tie rule
    assert not a_wins(VoteCounts(40, 60))


@pytest.mark.parametrize("a, b", [(50, 50), (51, 50), (50, 51), (0, 0), (0, 1), (1, 0), (3, 4), (4, 3)])
def test_won_by_a_keeps_the_tie_rule_of_winner_and_district_effgap(a, b):
    """A tie (2a = pop), either side of one, and pop 0, where A "wins" an
    empty district and it adds nothing to W."""
    v = VoteCounts(a, b)
    pop = v.population()
    won = won_by_a(a, pop)
    assert won == (pop if a_wins(v) else 0)
    assert district_effgap(v) == (4 * a - 3 * pop if a_wins(v) else 4 * a - pop)
    assert district_effgap(v) == 4 * a - pop - 2 * won  # the margin identity, one district
    if pop == 0:
        assert a_wins(v) and won == 0


def test_district_effgap_matches_wasted_vote_arithmetic():
    assert district_effgap(VoteCounts(60, 40)) == -60
    assert 2 * wasted_votes_oracle(60, 40) == -60
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randint(0, 200), rng.randint(0, 200)
        assert district_effgap(VoteCounts(a, b)) == 2 * wasted_votes_oracle(a, b)


def test_district_effgap_zero_at_quarter_point():
    assert district_effgap(VoteCounts(25, 75)) == 0
    assert district_effgap(VoteCounts(75, 25)) == 0


def test_district_effgap_tie_equals_minus_loser():
    # At an exact tie the gap is minus party B's tally.
    assert district_effgap(VoteCounts(50, 50)) == 2 * -50


def test_wasted_votes_halves():
    # Scaled by 2: A wastes 10 and B 40; then A wastes 20 and B 5/2.
    assert wasted_votes(VoteCounts(60, 40)) == (20, 80)
    assert wasted_votes(VoteCounts(20, 25)) == (40, 5)


def test_scaled_wasted_votes_differ_by_the_scaled_gap():
    for a in range(13):
        for b in range(13):
            v = VoteCounts(a, b)
            wa, wb = wasted_votes(v)
            assert wa - wb == district_effgap(v), (a, b)


def test_effgap_bound():
    rng = random.Random(1)
    for _ in range(500):
        v = VoteCounts(rng.randint(0, 99), rng.randint(0, 99))
        assert abs(district_effgap(v)) <= 3 * v.population()


def test_negative_votes_rejected():
    with pytest.raises(ValueError):
        VoteCounts(-1, 4)


def test_vote_subtraction_inverts_addition():
    v, w = VoteCounts(7, 3), VoteCounts(2, 3)
    assert (v + w) - w == v and v - w == VoteCounts(5, 0)
    with pytest.raises(ValueError):
        w - v  # a region cannot hold negative votes


def test_total_effgap_two_districts():
    stats = total_effgap([VoteCounts(60, 40), VoteCounts(20, 80)])
    # Hand sum: scaled gaps are -60 and -20.
    assert stats.total_scaled_abs == 80
    assert stats.normalized == Fraction(80, 2 * 200)
    assert (stats.seats_a, stats.seats_b) == (1, 1)


def test_total_effgap_zero_pair():
    assert total_effgap([VoteCounts(25, 75), VoteCounts(75, 225)]).total_scaled_abs == 0


def test_total_effgap_single_tie_district():
    assert total_effgap([VoteCounts(50, 50)]).total_scaled_abs == 100


def test_total_effgap_empty_errors():
    with pytest.raises(ValueError, match="no districts"):
        total_effgap([])


def test_attainable_values_kappa_two():
    vals = attainable_values(60, 100, 2)
    assert [v.value for v in vals] == [Fraction(20), Fraction(30), Fraction(70)]
    assert [v.z_indices for v in vals] == [(1,), (2,), (0,)]


def test_attainable_values_quarter_case():
    vals = attainable_values(25, 100, 1)
    assert [v.value for v in vals] == [Fraction(0), Fraction(100)]


def test_attainable_values_duplicate_indices_merge():
    # 2*A = 50 sits exactly between the z=0 and z=1 lattice points.
    vals = attainable_values(25, 50, 2)
    assert vals[0].value == Fraction(0)
    assert any(len(v.z_indices) > 1 for v in vals)


def test_attainable_values_argument_checks():
    with pytest.raises(ValueError):
        attainable_values(10, 100, 0)
    with pytest.raises(ValueError):
        attainable_values(200, 100, 2)


def test_spacing_bound_random_triples():
    rng = random.Random(2)
    for _ in range(300):
        pop = rng.randint(1, 10**6)
        a = rng.randint(0, pop)
        kappa = rng.randint(1, 12)
        vals = [v.value for v in attainable_values(a, pop, kappa)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi - lo <= Fraction(pop, kappa)


def test_margin_identity_wisconsin_style_equipartition():
    # 8 equal districts, statewide share 50.75%, 3 seats for party A.
    pops = [125_000] * 8
    a = [70_000, 70_000, 70_000] + [59_500] * 5
    districts = [VoteCounts(ai, pi - ai) for ai, pi in zip(a, pops)]
    stats = total_effgap(districts)
    assert stats.seats_a == 3
    vm, sm, normalized = margin_identity(stats, VoteCounts(507_500, 492_500))
    assert vm == Fraction(75, 10000)
    assert sm == Fraction(3, 8) - Fraction(1, 2)
    # |2*0.0075 - (-0.125)| = 0.14; the published 14.76% for the same
    # statewide numbers comes from unequal-population districts, so the
    # identity's value differs from it and must not be asserted equal.
    assert normalized == Fraction(14, 100)
    assert normalized == stats.normalized


def test_margin_identity_symmetric_case():
    districts = [VoteCounts(50, 50), VoteCounts(50, 50), VoteCounts(20, 80), VoteCounts(80, 20)]
    stats = total_effgap(districts)
    vm, sm, normalized = margin_identity(stats, stats.total_votes())
    assert (vm, sm) == (0, Fraction(3, 4) - Fraction(1, 2))
    assert normalized == stats.normalized


def test_margin_identity_requires_equipartition():
    stats = total_effgap([VoteCounts(10, 10), VoteCounts(10, 20)])
    with pytest.raises(ValueError, match="equipartition"):
        margin_identity(stats, VoteCounts(20, 30))


def test_margin_identity_rejects_other_totals_and_zero_population():
    stats = total_effgap([VoteCounts(10, 10), VoteCounts(15, 5)])
    with pytest.raises(ValueError, match="^stats do not aggregate to the given totals$"):
        margin_identity(stats, VoteCounts(20, 20))
    empty = total_effgap([VoteCounts(0, 0), VoteCounts(0, 0)])
    with pytest.raises(ValueError, match="^total population is zero$"):
        margin_identity(empty, VoteCounts(0, 0))


def test_margin_identity_random_equipartitions():
    rng = random.Random(3)
    for _ in range(200):
        kappa = rng.randint(1, 6)
        pop = rng.randint(1, 50) * 2
        districts = []
        for _ in range(kappa):
            a = rng.randint(0, pop)
            districts.append(VoteCounts(a, pop - a))
        stats = total_effgap(districts)
        vm, sm, normalized = margin_identity(stats, stats.total_votes())
        assert normalized == stats.normalized
