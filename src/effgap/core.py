"""Exact arithmetic for the two-party efficiency-gap measure.

Everything here is kept exact: a district's gap is stored as an integer
scaled by 2 (the raw value may be a half-integer because of the 1/2 and
3/2 coefficients in the formula), and any quantity that divides by a
district count or a population is a :class:`fractions.Fraction`.  No
floating point enters the math; floats appear only in display layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

PARTY_A = "A"
PARTY_B = "B"

# A district's efficiency gap multiplied by 2, which makes it integral:
# 4*party_a - 3*pop when A wins, 4*party_a - pop otherwise.
ScaledEffgap = int


@dataclass(frozen=True)
class VoteCounts:
    """Two-party vote totals for one region.

    The region's population is defined as ``party_a + party_b``; third
    parties are outside the model.
    """

    party_a: int
    party_b: int

    def __post_init__(self) -> None:
        if self.party_a < 0 or self.party_b < 0:
            raise ValueError("vote counts must be non-negative")

    def population(self) -> int:
        return self.party_a + self.party_b

    def __add__(self, other: "VoteCounts") -> "VoteCounts":
        return VoteCounts(self.party_a + other.party_a, self.party_b + other.party_b)

    def __sub__(self, other: "VoteCounts") -> "VoteCounts":
        return VoteCounts(self.party_a - other.party_a, self.party_b - other.party_b)


ZERO_VOTES = VoteCounts(0, 0)


def winner(v: VoteCounts) -> str:
    """Winning party of a district; a tie goes to party A."""
    return PARTY_A if 2 * v.party_a >= v.population() else PARTY_B


def district_effgap(v: VoteCounts) -> ScaledEffgap:
    """Twice the district's efficiency gap, as an exact integer.

    Equivalently twice (party A's wasted votes minus party B's): the
    loser wastes every vote, the winner wastes the votes beyond half.
    """
    pop = v.population()
    if 2 * v.party_a >= pop:
        return 4 * v.party_a - 3 * pop
    return 4 * v.party_a - pop


def wasted_votes(v: VoteCounts) -> tuple[Fraction, Fraction]:
    """(A's wasted votes, B's wasted votes) as exact rationals."""
    pop = v.population()
    if winner(v) == PARTY_A:
        return Fraction(2 * v.party_a - pop, 2), Fraction(v.party_b)
    return Fraction(v.party_a), Fraction(2 * v.party_b - pop, 2)


class DistrictStat(NamedTuple):
    votes: VoteCounts
    scaled_effgap: ScaledEffgap
    winner: str


@dataclass(frozen=True)
class PlanStats:
    """Aggregate efficiency-gap statistics for a full district plan.

    ``total_scaled_abs`` is twice the plan's total absolute efficiency
    gap; ``normalized`` is the total gap divided by the plan's two-party
    population (0 for an all-empty plan).
    """

    per_district: tuple[DistrictStat, ...]
    total_scaled_abs: int
    normalized: Fraction
    seats_a: int
    seats_b: int

    @property
    def kappa(self) -> int:
        return len(self.per_district)

    def total_votes(self) -> VoteCounts:
        total = ZERO_VOTES
        for stat in self.per_district:
            total = total + stat.votes
        return total


def total_effgap(districts: Sequence[VoteCounts]) -> PlanStats:
    """Statistics for a plan given per-district vote totals.

    Raises ValueError for an empty sequence ("no districts").
    """
    if not districts:
        raise ValueError("no districts")
    per = tuple(DistrictStat(v, district_effgap(v), winner(v)) for v in districts)
    signed = sum(stat.scaled_effgap for stat in per)
    total_abs = abs(signed)
    pop = sum(v.population() for v in districts)
    normalized = Fraction(total_abs, 2 * pop) if pop else Fraction(0)
    seats_a = sum(1 for stat in per if stat.winner == PARTY_A)
    return PlanStats(per, total_abs, normalized, seats_a, len(per) - seats_a)


@dataclass(frozen=True)
class AttainableValue:
    """One value the total gap of an exact equipartition can take.

    Distinct indices z can collide on the same value when twice the
    party-A total sits symmetrically between two lattice points; the
    colliding indices are all reported.
    """

    value: Fraction
    z_indices: tuple[int, ...]


def attainable_values(total_a: int, total_pop: int, kappa: int) -> list[AttainableValue]:
    """The kappa+1 values attainable by any exact kappa-equipartition.

    For z = 0..kappa the candidate value is
    ``|2*total_a - (z + kappa/2) * total_pop / kappa|``, an exact
    rational.  Returned in ascending order with duplicates merged.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if not 0 <= total_a <= total_pop:
        raise ValueError("party A total must lie in [0, total_pop]")
    by_value: dict[Fraction, list[int]] = {}
    for z in range(kappa + 1):
        value = abs(Fraction(4 * kappa * total_a - (2 * z + kappa) * total_pop, 2 * kappa))
        by_value.setdefault(value, []).append(z)
    return [AttainableValue(v, tuple(zs)) for v, zs in sorted(by_value.items())]


def margin_identity(
    stats: PlanStats, total: VoteCounts
) -> tuple[Fraction, Fraction, Fraction]:
    """(vote margin, seat margin, |2*vm - sm|) for an exact equipartition.

    The returned normalized value equals ``stats.normalized`` exactly
    whenever all district populations are equal; the identity is not
    valid otherwise, so unequal populations raise.  (Real district maps
    are only approximately equal-population, which is why a published
    figure computed from them can differ from this formula.)
    """
    pops = {stat.votes.population() for stat in stats.per_district}
    if len(pops) != 1:
        raise ValueError("identity requires exact equipartition")
    aggregate = stats.total_votes()
    if aggregate != total:
        raise ValueError("stats do not aggregate to the given totals")
    pop = total.population()
    if pop == 0:
        raise ValueError("total population is zero")
    vote_margin = Fraction(total.party_a, pop) - Fraction(1, 2)
    seat_margin = Fraction(stats.seats_a, stats.kappa) - Fraction(1, 2)
    normalized = abs(2 * vote_margin - seat_margin)
    return vote_margin, seat_margin, normalized
