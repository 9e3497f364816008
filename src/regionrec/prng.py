"""Deterministic PRNG used for all seeded weight initialisation.

The generator is xoshiro256** seeded through splitmix64, and it is part of
the package's external contract: any reimplementation that follows the same
seeding and draw order reproduces our weights bit for bit.

Seeding: the 64-bit seed is fed to splitmix64; its first four outputs become
the xoshiro256** state (in order s0..s3).  Doubles are drawn as
``(x >> 11) * 2**-53`` from successive 64-bit outputs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64  # rotl(s1 * 5, 7) * 9
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Array of uniforms in [low, high), filled in row-major draw order."""
        n = int(np.prod(size))
        span = high - low
        draws = (low + span * self.random() for _ in range(n))
        return np.fromiter(draws, dtype=np.float64, count=n).reshape(size)

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n) via 64-bit modulo (documented bias < 2**-53)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
