import random

import pytest

from effgap.pcg64 import _PCG_MULT, replica_draw, seed_state, stream_draw


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


def stream_with_zero_word(rng: random.Random, word: int) -> tuple[int, int]:
    """A random PCG64 ``(state, inc)`` whose 32-bit word number ``word``
    (from 0: the low half of the first output, then its high half) is 0.

    With the top six bits of a state zero, XSL-RR rotates by 0, so the
    output is the state's high half xor its low half; such a state is built
    directly and stepped back, the multiplier being odd."""
    inc = rng.getrandbits(128) | 1
    hi, lo = rng.getrandbits(58), rng.getrandbits(64)
    half = 32 * (word % 2)
    lo ^= ((hi ^ lo) >> half & 0xFFFFFFFF) << half
    state = hi << 64 | lo
    for _ in range(word // 2 + 1):
        state = (state - inc) * pow(_PCG_MULT, -1, 1 << 128) % (1 << 128)
    return state, inc


def test_redraws_on_a_zero_word_match_numpy():
    """A 32-bit word of 0 is rejected by every bounded draw whose bound is
    not a power of two, which random words almost never are.  Placed at the
    draw of r, and in the shuffle of the picks, it makes numpy's generator,
    set to the same stream, take exactly one word more than a draw without
    a re-draw; ``stream_draw`` gives its picks and then its next draw."""
    np = pytest.importorskip("numpy")
    k, n = 20, 60
    rng = random.Random(21)
    for place, word in (("r", 0), ("shuffle", 20)):
        for _ in range(100):
            start, inc = stream_with_zero_word(rng, word)
            bitgen = np.random.PCG64()
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            gen = np.random.Generator(bitgen)
            r = int(gen.integers(0, k + 1))
            # Without a re-draw, r takes word 0, Floyd's picks words 1..r and
            # the shuffle words r + 1..2r - 1, word w with bound 2r + 1 - w,
            # which must not be a power of two.
            if r and (place == "r" or r + 1 <= word <= 2 * r - 1 and (2 * r + 1 - word) & (2 * r - word)):
                break
        else:
            pytest.fail(f"no stream puts the zero word in the draw of {place}")
        want = gen.choice(n, size=r, replace=False).tolist()
        states = [start]
        while len(states) < 4 * k:
            states.append((states[-1] * _PCG_MULT + inc) % (1 << 128))
        steps = states.index(bitgen.state["state"]["state"])
        assert 2 * steps - bitgen.state["has_uint32"] == 2 * r + 1, (place, r, steps)
        draw = stream_draw(start, inc)
        assert draw(k, n) == want, place
        r = int(gen.integers(0, k + 1))
        assert draw(k, n) == (gen.choice(n, size=r, replace=False).tolist() if r else []), place


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
