"""numpy's ``default_rng(seed)`` stream, reproduced for the seeded experiments.

A config's ``seed`` names the stream of numpy's ``default_rng(seed)``: a
PCG64 generator (XSL-RR 128/64) seeded through ``SeedSequence``.  This
module computes that stream with Python ints, so a seeded run does not load
numpy's ``random`` subpackage, which pulls in OpenSSL through ``secrets``
and ``hashlib``.  numpy's RNG policy (NEP 19) freezes only the legacy
``RandomState`` stream, so the port also keeps the seeded artifacts fixed
if numpy changes ``Generator``.

Scope: a nonnegative int seed and the two methods the seeded bodies call,
``uniform(low, high[, size])`` and ``integers(low, high)`` with ``high``
exclusive.  ``tests/test_draws.py`` checks every draw against numpy 2.4.6
for exact equality.
"""

from __future__ import annotations

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's pool size in 32-bit words


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    entropy = [seed & _M32]  # little-endian 32-bit words, at least one
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The draws of numpy's ``default_rng(seed)``, in the same order."""

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._step()
        self._half = None  # high half of the last output split by _next32

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._step()
        hi = self._state >> 64
        x = (hi ^ self._state) & _M64
        rot = hi >> 58
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float in [low, high), or an array of ``size`` of them."""
        span = high - low
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0**-53)
        return np.array([low + span * ((self._next64() >> 11) * 2.0**-53)
                         for _ in range(size)])

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by Lemire's bounded 32-bit method."""
        n = high - low
        m = self._next32() * n
        if m & _M32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)
