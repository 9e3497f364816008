"""Deterministic PRNG used for all seeded weight initialisation.

The generator is xoshiro256** seeded through splitmix64, and it is part of
the package's external contract: any reimplementation that follows the same
seeding and draw order reproduces our weights bit for bit.

Seeding: the 64-bit seed is fed to splitmix64; its first four outputs become
the xoshiro256** state (in order s0..s3).  Doubles are drawn as
``(x >> 11) * 2**-53`` from successive 64-bit outputs.

``next_u64`` is the reference step.  ``uniform`` draws the same stream in
lanes of numpy ``uint64`` words that step together.  One state update is a
linear map A on the 256 state bits over GF(2), so lane j can start at
A^(j*m) s and draw the m outputs that follow position j*m of the stream;
read lane by lane, the lanes' outputs are the scalar draws in order, and the
generator is left in A^n s, the state of the last lane after its last
needed step.  Lane starts come from a per-process table of A^(2^i), which
does not depend on the seed (Blackman & Vigna, arXiv 1805.01407, on jump
functions).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_U = np.uint64


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _step(s0, s1, s2, s3) -> np.ndarray:
    """``next_u64`` on every lane of the four ``uint64`` state words, in
    place; returns the lanes' outputs."""
    x = s1 * _U(5)
    result = ((x << _U(7)) | (x >> _U(57))) * _U(9)
    t = s1 << _U(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.bitwise_or(s3 << _U(45), s3 >> _U(19), out=s3)
    return result


def _apply(images: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map whose image of unit state k (bit k % 64 of word
    k // 64) is ``images[k]``, applied to each row of ``states`` (N, 4).

    Each state byte selects one of the 256 sums of its 8 bits' images, so a
    state is the sum of 32 table rows."""
    tables = np.empty((256, 32, 4), _U)
    tables[0] = 0
    by_bit = images.reshape(32, 8, 4).transpose(1, 0, 2).copy()
    for b in range(8):
        np.bitwise_xor(tables[: 1 << b], by_bit[b], out=tables[1 << b : 2 << b])
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T.astype(np.intp)
    rows = np.take(tables.reshape(-1, 4), octets * 32 + np.arange(32)[:, None], axis=0)
    return np.bitwise_xor.reduce(rows, axis=0)


@functools.cache
def _jump(i: int) -> np.ndarray:
    """A^(2^i) as the images of the 256 unit states, (256, 4) ``uint64``,
    read-only.  A is one step of the unit states as 256 lanes; each further
    power squares the one before."""
    if i == 0:
        k = np.arange(256)
        units = np.zeros((4, 256), _U)
        units[k // 64, k] = _U(1) << (k % 64).astype(_U)
        _step(*units)
        images = units.T.copy()
    else:
        images = _apply(_jump(i - 1), _jump(i - 1))
    images.flags.writeable = False
    return images


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        state = seed
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
        """Array of uniforms in [low, high), filled in row-major draw order:
        the values ``low + (high - low) * self.random()`` would give, with
        the generator left where those calls would leave it."""
        shape = tuple(map(operator.index, size)) if np.iterable(size) else (operator.index(size),)
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in size {size}")
        n = math.prod(shape)
        if n == 0:
            return np.empty(shape)
        # ~4*sqrt(n) lanes of a power-of-two length balance the per-step
        # overhead against the jumps to the lane starts
        p = max(n.bit_length() // 2 - 2, 0)
        steps = 1 << p
        lanes = -(-n // steps)
        starts = np.array([self._s], _U)
        while len(starts) < lanes:  # double the lanes, each jumping len * steps
            jump = _jump(p + len(starts).bit_length() - 1)
            starts = np.concatenate([starts, _apply(jump, starts[: lanes - len(starts)])])
        state = starts.T.copy()
        out = np.empty((lanes, steps))
        last = n - (lanes - 1) * steps  # draws of the last lane
        for t in range(steps):
            np.multiply(_step(*state) >> _U(11), 2.0**-53, out=out[:, t])
            if t == last - 1:
                self._s = [int(w) for w in state[:, -1]]
        out = out.reshape(-1)[:n]
        out *= high - low
        out += low
        return out.reshape(shape)

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n) via 64-bit modulo (documented bias < 2**-53)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


def quantized_uniform(rng: Xoshiro256StarStar, fan_in: int, shape) -> np.ndarray:
    """Weight init shared by encoder and decoder: uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)), rounded to float32, held as float64."""
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, shape).astype(np.float32).astype(np.float64)
