"""numpy's PCG64 node draws for one local-search replica, in plain Python.

Replica ``replica`` of a search seeded with ``seed`` draws, each
iteration, r uniform on 0..k and then r distinct node numbers below n,
exactly as ``numpy.random.Generator(PCG64(SeedSequence(seed).spawn(R)[replica]))``
does with ``integers(0, k + 1)`` and ``choice(n, r, replace=False)``.
Every step is a specified algorithm, so the copy here keeps traces
byte-identical without numpy:

- SeedSequence: the seed's 32-bit words, padded with zeros to the pool
  size of four, then the spawn key ``(replica,)``, hashmixed into the
  pool, which is then hashed out to four 64-bit words;
- PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG whose state and
  increment are seeded from those words, with the XSL-RR output of each
  new state;
- numpy's ``next32``: the low half of a 64-bit output, then its high half;
- Lemire's bounded integers on 32 bits (arXiv:1805.10941): uniform on
  0..m takes one draw, drawn again while the low word is below
  2**32 mod (m + 1); m = 0 takes none;
- ``choice``: Floyd's algorithm and a shuffle of the picks, or, when
  n > 10000 and r > n // 50, a shuffle of the last r places of 0..n-1.

n must stay below 2**32 - 1, where numpy switches to its 64-bit path.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words; 0 is one word."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def seed_state(seed: int, replica: int) -> list[int]:
    """``SeedSequence(seed).spawn(R)[replica].generate_state(4, numpy.uint64)``, for any R > replica."""
    run = _words(seed)
    entropy = run + [0] * (_POOL - len(run)) + _words(replica)
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, halves = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


def _next32(state: int, inc: int) -> Iterator[int]:
    """numpy's ``next32`` from a seeded PCG64 state: each output's low 32 bits, then its high 32."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield x & _MASK32
        yield x >> 32


def replica_draw(seed: int, replica: int) -> Callable[[int, int], list[int]]:
    """The replica's ``draw(k, n)``: r uniform on 0..k, then min(r, n) distinct numbers below n."""
    s_hi, s_lo, i_hi, i_lo = seed_state(seed, replica)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # numpy's seeding: one step from state 0, add the seed, one more step.
    return stream_draw(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc)


def stream_draw(state: int, inc: int) -> Callable[[int, int], list[int]]:
    """``draw(k, n)`` from a PCG64 ``state`` and ``inc`` as numpy's
    ``bit_generator.state["state"]`` holds them, with no half word buffered."""
    next32 = _next32(state, inc).__next__

    def below(m: int) -> int:
        """Lemire's uniform draw on 0..m - 1."""
        x = next32() * m
        if (x & _MASK32) < m:
            t = (1 << 32) % m
            while (x & _MASK32) < t:
                x = next32() * m
        return x >> 32

    def draw(k: int, n: int) -> list[int]:
        r = min(below(k + 1), n) if k else 0
        if r == 0:
            return []
        if n > 10000 and r > n // 50:
            picks, first = list(range(n)), max(n - r, 1)
        else:
            # Floyd: for j = n - r .. n - 1, take a uniform v in 0..j, or j
            # itself when v is already taken.
            start = n - r
            picks, first = [0] if start == 0 else [], 1  # 0..0 takes no draw
            taken = set(picks)
            for j in range(max(start, 1), n):
                v = below(j + 1)
                if v in taken:
                    v = j
                taken.add(v)
                picks.append(v)
        # numpy's shuffle: swap place i with a uniform place in 0..i, for i
        # from the last place down to ``first``.
        for i in range(len(picks) - 1, first - 1, -1):
            j = below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks[len(picks) - r:]

    return draw
