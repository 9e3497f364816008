"""Known-answer vectors for the package PRNG, whose draw sequence is part of
the external contract (seeded weights depend on it bit for bit)."""

import hashlib

import numpy as np
import pytest

from regionrec import prng
from regionrec.prng import Xoshiro256StarStar, _splitmix64


def test_splitmix64_first_output():
    assert _splitmix64(0)[1] == 0xE220A8397B1DCDAF


def test_first_outputs_for_seed_0():
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0x99EC5F36CB75F2B4,
        0xBF6E1F784956452A,
        0x1A5F849D4933E6E0,
        0x6AA594F1262D2D2C,
    ]


def test_uniform_draws_digest():
    draws = Xoshiro256StarStar(7).uniform(-0.5, 0.25, (37, 11))
    assert draws.shape == (37, 11) and draws.dtype == np.float64
    assert (
        hashlib.sha256(draws.tobytes()).hexdigest()
        == "279e3b8502f516efcdfbc03a1bdd1d9aec359ffebcb8aa3781595e3cb24beeeb"
    )


def test_uniform_follows_random_in_draw_order():
    a, b = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    assert a.uniform(0.0, 1.0, 6).tolist() == [b.random() for _ in range(6)]


def test_lane_sized_uniform_digest():
    """A draw of 264,967 values, and the stream that follows it."""
    rng = Xoshiro256StarStar(7)
    draws = rng.uniform(-0.5, 0.25, (1031, 257))
    assert (
        hashlib.sha256(draws.tobytes()).hexdigest()
        == "209b40203579a1a94f0501bf46d7e6a0a74249a38813b89094a589afcd582073"
    )
    assert rng.next_u64() == 0x4A4BD4FDFF56D62C


@pytest.mark.parametrize("size", [-3, (-1, 2), (2, -1), (0, -1)])
def test_uniform_rejects_a_negative_dimension(size):
    rng = Xoshiro256StarStar(0)
    with pytest.raises(ValueError, match="negative dimension"):
        rng.uniform(0.0, 1.0, size)


@pytest.mark.parametrize("seed", [-1, -(2**64), 2**64])
def test_a_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        Xoshiro256StarStar(seed)


def test_the_largest_seed_is_its_own_stream():
    assert Xoshiro256StarStar(2**64 - 1).next_u64() != Xoshiro256StarStar(0).next_u64()


def _scalar_uniform(rng, low, high, size):
    """The reference draw: one ``random()`` per value, row-major."""
    n = int(np.prod(size))
    return np.array([low + (high - low) * rng.random() for _ in range(n)]).reshape(size)


# around the lane-count and lane-length steps: n of 2**k - 1, 2**k, 2**k + 1
# and odd 2-D shapes whose last lane is partial
_SIZES = [0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097,
          (0, 3), (1, 1), (7, 13), (33, 65), (127, 129), (97, 131), np.int64(5), (np.int64(33), 3)]


def test_uniform_interleaved_with_scalar_draws_matches_the_scalar_stream():
    lanes, scalar = Xoshiro256StarStar(11), Xoshiro256StarStar(11)
    for i, size in enumerate(_SIZES):
        low, high = -0.5 * i, 0.25 * (i + 1)
        got = lanes.uniform(low, high, size)
        assert got.shape == np.empty(size).shape and got.dtype == np.float64
        assert np.array_equal(got, _scalar_uniform(scalar, low, high, size)), size
        assert lanes._s == scalar._s, size
        assert lanes.integers(1000 + i) == scalar.integers(1000 + i)
        assert lanes.random() == scalar.random()
        assert lanes._s == scalar._s


@pytest.mark.parametrize("i", [0, 1, 5])
def test_the_jump_table_is_powers_of_one_step(i):
    """A^(2^i), summed over a random state's set bits, is 2^i scalar steps."""
    rng = np.random.default_rng(i)
    state = [int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64)]
    images = prng._jump(i)
    summed = [0, 0, 0, 0]
    for k in range(256):
        if state[k // 64] >> (k % 64) & 1:
            summed = [a ^ int(b) for a, b in zip(summed, images[k])]
    g = Xoshiro256StarStar(0)
    g._s = list(state)
    for _ in range(2**i):
        g.next_u64()
    assert summed == g._s
    assert [int(w) for w in prng._apply(images, np.array([state], np.uint64))[0]] == g._s
