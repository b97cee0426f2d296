import random

import pytest

from effgap.pcg64 import replica_draw, seed_state


def numpy_draw(seed: int, replica: int, replicas: int):
    """The same draw made by numpy's own generator, the oracle for ``replica_draw``."""
    np = pytest.importorskip("numpy")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(replicas)[replica]))

    def draw(k: int, n: int) -> list[int]:
        r = int(rng.integers(0, k + 1))
        return [] if r == 0 else rng.choice(n, size=min(r, n), replace=False).tolist()

    return draw


def test_draws_match_numpy_on_random_streams():
    """300 streams, 60 iterations each: the seed words and every draw equal numpy's."""
    np = pytest.importorskip("numpy")
    rng = random.Random(16)
    draws = 0
    for stream in range(300):
        seed = rng.choice([0, rng.randrange(2**32), rng.randrange(2**70), rng.randrange(2**70),
                           rng.randrange(2**70)] + ([rng.randrange(2**200)] if stream % 10 == 0 else []))
        replicas = rng.randint(1, 6)
        replica = rng.randrange(replicas)
        words = np.random.SeedSequence(seed).spawn(replicas)[replica].generate_state(4, np.uint64)
        assert seed_state(seed, replica) == [int(w) for w in words], (seed, replica)
        k = rng.randint(1, 40)
        n = rng.randint(k + 1, 2000)
        got, want = replica_draw(seed, replica), numpy_draw(seed, replica, replicas)
        for iteration in range(60):
            picks = got(k, n)
            assert picks == want(k, n), (seed, replica, k, n, iteration)
            draws += len(picks)
    assert draws > 300 * 60 * 5


def test_rejected_draws_match_numpy():
    """Bounds near 2**32 reject about a third of Lemire's draws, which small bounds almost never do."""
    rng = random.Random(20)
    for stream in range(20):
        seed, n = rng.randrange(2**70), rng.randint(2**31, 2**32 - 2)
        got, want = replica_draw(seed, 2), numpy_draw(seed, 2, 3)
        for iteration in range(20):
            assert got(40, n) == want(40, n), (seed, n, iteration)


def test_tail_shuffle_path_matches_numpy():
    """Above 10000 nodes, a draw of more than n // 50 shuffles the tail of 0..n-1, as numpy does."""
    rng = random.Random(17)
    tail = 0
    for stream in range(40):
        seed, n = rng.randrange(2**64), rng.randint(10001, 30000)
        k = rng.randint(n // 50 + 1, n // 10)
        got, want = replica_draw(seed, 0), numpy_draw(seed, 0, 1)
        for iteration in range(6):
            picks = got(k, n)
            assert picks == want(k, n), (seed, n, k, iteration)
            tail += len(picks) > n // 50
    assert tail >= 100


def test_draw_of_exactly_n_over_50_stays_floyd():
    """r == n // 50 above 10000 nodes is still Floyd's algorithm, as in numpy."""
    rng = random.Random(18)
    boundary = 0
    for stream in range(4):
        seed, n = rng.randrange(2**64), rng.randint(10001, 12000)
        k = n // 50 + 1
        got, want = replica_draw(seed, 0), numpy_draw(seed, 0, 1)
        hits = 0
        for iteration in range(3000):
            picks = got(k, n)
            assert picks == want(k, n), (seed, n, k, iteration)
            hits += len(picks) == n // 50
            if hits == 2:
                break
        boundary += hits
    assert boundary == 8


def test_draw_of_every_node_matches_numpy():
    """r == n makes Floyd's first bound 0, which takes no draw."""
    for n in range(1, 30):
        got, want = replica_draw(n, 1), numpy_draw(n, 1, 2)
        for iteration in range(20):
            assert got(n, n) == want(n, n), (n, iteration)


def test_draws_are_distinct_node_numbers():
    rng = random.Random(19)
    for stream in range(50):
        k = rng.randint(1, 30)
        n = rng.randint(k + 1, 100)
        draw = replica_draw(rng.randrange(2**70), rng.randrange(6))
        sizes = set()
        for _ in range(200):
            picks = draw(k, n)
            assert len(set(picks)) == len(picks) <= k and all(0 <= i < n for i in picks)
            sizes.add(len(picks))
        assert sizes == set(range(k + 1))


def test_k_zero_draws_nothing():
    """Uniform on 0..0 is 0 and takes no value from the stream."""
    draw, fresh = replica_draw(7, 0), replica_draw(7, 0)
    assert draw(0, 10) == []
    assert draw(5, 10) == fresh(5, 10)


def test_negative_seed_is_a_value_error():
    with pytest.raises(ValueError, match="non-negative"):
        replica_draw(-1, 0)
