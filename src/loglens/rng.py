"""Deterministic random number generation.

Everything stochastic in the toolkit (parameter initialization, shuffles,
synthetic data, noise injection) draws from this generator so that a single
64-bit seed reproduces a run bit-for-bit, independent of numpy version and
platform.

The generator is xoshiro256** (Blackman & Vigna). Its four 64-bit state words
are expanded from the seed with SplitMix64, the recommended seeding procedure.
Floats in [0, 1) take the top 53 bits of an output word; bounded integers use
Lemire's multiply-shift reduction.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, *tags: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of tags.

    Used to give every independent consumer (detector, run index, noise
    injector) its own stream without manual seed bookkeeping.
    """
    h = seed & _MASK64
    for tag in tags:
        for byte in str(tag).encode("utf-8"):
            h, out = _splitmix64(h ^ byte)
            h = out
    h, out = _splitmix64(h)
    return out


class Rng:
    """xoshiro256** stream with convenience sampling methods."""

    __slots__ = ("seed", "_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        state = self.seed
        words = []
        for _ in range(4):
            state, word = _splitmix64(state)
            words.append(word)
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (s1 * 5) & _MASK64
        result = (((result << 7) | (result >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float, size=None):
        """Uniform floats in [low, high); an ndarray when ``size`` is given."""
        if size is None:
            return low + (high - low) * self.random()
        n = int(np.prod(size))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = low + (high - low) * self.random()
        return out.reshape(size)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("integer() requires n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        idx = list(range(n))
        self.shuffle(idx)
        return np.asarray(idx, dtype=np.int64)

    def choice(self, items):
        return items[self.integer(len(items))]

    def weighted_index(self, weights) -> int:
        """Index sampled proportionally to nonnegative ``weights``."""
        total = float(sum(weights))
        r = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                return i
        return len(weights) - 1
