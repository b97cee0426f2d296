import hashlib
from fractions import Fraction

import pytest

from effgap.county import district_votes, ingest, plan_stats
from effgap.synthdata import STATE_PROFILES, TOTAL_POP, synth_state_csv


@pytest.mark.parametrize("code", sorted(STATE_PROFILES))
def test_profiles_reproduce_published_summaries(code):
    profile = STATE_PROFILES[code]
    res = ingest(synth_state_csv(code))
    assert 70 <= len(res.graph.nodes) <= 250
    assert res.warnings == ()
    stats = plan_stats(res.graph, res.plan)
    total = res.graph.total_votes()
    assert total.population() == TOTAL_POP
    assert Fraction(total.party_a, total.population()) == Fraction(profile.share_bp, 10000)
    assert (stats.seats_a, stats.seats_b) == (profile.seats_a, profile.kappa - profile.seats_a)
    assert stats.normalized == Fraction(profile.effgap_bp, 10000)


def test_deterministic_per_seed():
    assert synth_state_csv("WI", seed=4) == synth_state_csv("WI", seed=4)
    assert synth_state_csv("WI", seed=4) != synth_state_csv("WI", seed=5)


def test_population_bounds_leave_room_to_move():
    res = ingest(synth_state_csv("WI"))
    pops = sorted(v.population() for v in district_votes(res.graph, res.plan).values())
    # A genuinely wide window, with a single district pinned at each end,
    # so single-node reassignments are not all blocked by the bounds.
    graph = res.graph
    assert graph.pop_hi - graph.pop_lo > TOTAL_POP // len(graph.district_ids) // 20
    assert pops.count(graph.pop_lo) == 1
    assert pops.count(graph.pop_hi) == 1


# sha256 over synth_state_csv(code, seed) for seeds 0..29 in order,
# recorded before the neighbour loops were folded into one helper.
SYNTH_DIGESTS = {
    "PA": "f3e63cf25028bf7e910ef999ff4aafe2e23bd6ac479629f13c4e00840db2b085",
    "TX": "64c4c1f42dd3d5ccd3b9fb2575161e0574daef374b170a1f980ba54da1ff4a76",
    "VA": "abe824e860e5e014107248d5fc9af45f4546569aff50ac7ab48d977405857133",
    "WI": "2eb4229d599542145ba4ea1d8d1669ba731655f81b5436998f757f816777c6ef",
}


@pytest.mark.parametrize("code", sorted(SYNTH_DIGESTS))
def test_fixtures_match_digests(code):
    digest = hashlib.sha256()
    for seed in range(30):
        digest.update(synth_state_csv(code, seed).encode())
    assert digest.hexdigest() == SYNTH_DIGESTS[code]
