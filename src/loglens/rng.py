"""Deterministic random number generation.

Everything stochastic in the toolkit (parameter initialization, shuffles,
synthetic data, noise injection) draws from this generator so that a single
64-bit seed reproduces a run bit-for-bit, independent of numpy version and
platform.

The generator is xoshiro256** (Blackman & Vigna). Its four 64-bit state words
are expanded from the seed with SplitMix64, the recommended seeding procedure.
Floats in [0, 1) take the top 53 bits of an output word; bounded integers use
Lemire's multiply-shift reduction. ``unit_floats`` and ``bounded`` apply the
same maps to words drawn ahead with ``next_u64s``.

Arrays of floats are computed a block at a time. The state update is linear
over GF(2), so the word ``s1`` after k steps is the XOR of the words that each
set bit of the start state produces on its own. A table of those words for
every state bit and every step of a block, plus the state after a whole
block, turns a block of draws into two XOR reductions. The results, and the
state left behind, are bit-identical to drawing one word at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
BLOCK = 512


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


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from output words, as ``Rng.random`` makes them."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def bounded(word: int, n: int) -> int:
    """Integer in [0, n) from one output word, as ``Rng.integer`` makes it."""
    return (word * n) >> 64


def _bounded_words(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``bounded(words[k], bounds[k])`` for every k, for bounds below 2**32.

    With ``word = hi * 2**32 + lo``, ``(word * n) >> 64`` is
    ``(hi * n + ((lo * n) >> 32)) >> 32``, and no term reaches 2**64."""
    low32 = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)
    return ((words >> shift) * bounds + (((words & low32) * bounds) >> shift)) >> shift


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


@functools.cache
def _block_tables() -> tuple[np.ndarray, np.ndarray]:
    """``(256, BLOCK)`` words ``s1`` per state bit and step, and ``(256, 4)``
    states after ``BLOCK`` steps, each started from that one state bit."""
    # row j has state bit j set, in the bit order ``next_u64s`` unpacks
    unit = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little")
    s0, s1, s2, s3 = unit.view("<u8").T.copy()
    words = np.empty((256, BLOCK), dtype=np.uint64)
    for k in range(BLOCK):
        words[:, k] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    jump = np.stack([s0, s1, s2, s3], axis=1)
    words.flags.writeable = False
    jump.flags.writeable = False
    return words, jump


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

    def next_u64s(self, n: int) -> np.ndarray:
        """The next ``n`` output words as uint64, as ``next_u64`` would give
        them: whole blocks from the tables, the tail one word at a time."""
        out = np.empty(n, dtype=np.uint64)
        blocks = n // BLOCK
        if blocks:
            words, jump = _block_tables()
            state = np.array([self._s0, self._s1, self._s2, self._s3], dtype="<u8")
            for b in range(blocks):
                # bit 64*w + j of the state is bit j of word s<w>
                mask = np.unpackbits(state.view(np.uint8), bitorder="little") == 1
                out[b * BLOCK:(b + 1) * BLOCK] = np.bitwise_xor.reduce(
                    words[mask], axis=0)
                state = np.bitwise_xor.reduce(jump[mask], axis=0).astype("<u8")
            self._s0, self._s1, self._s2, self._s3 = (int(w) for w in state)
            head = out[:blocks * BLOCK]
            head[:] = _rotl(head * np.uint64(5), 7) * np.uint64(9)
        for i in range(blocks * BLOCK, n):
            out[i] = self.next_u64()
        return out

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float, size=None):
        """Uniform floats in [low, high); an ndarray when ``size`` is given."""
        if size is None:
            return low + (high - low) * self.random()
        unit = unit_floats(self.next_u64s(int(np.prod(size))))
        return (low + (high - low) * unit).reshape(size)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("integer() requires n >= 1")
        return bounded(self.next_u64(), n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle. Its n - 1 words come from
        ``next_u64s`` and the swap indices from them as arrays, so only the
        swaps run one at a time; the order, and the state left behind, are
        those of drawing ``integer(i + 1)`` at each step."""
        n = len(items)
        if n < 2:
            return
        js = _bounded_words(self.next_u64s(n - 1),
                            np.arange(n, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        idx = list(range(n))
        self.shuffle(idx)
        return np.asarray(idx, dtype=np.int64)

    def choice(self, items):
        return items[self.integer(len(items))]
