import numpy as np
import pytest

from regionrec.encoder import EncoderParams, FeatureGrid, encode
from regionrec.maskio import RasterImage


def test_zero_image_gives_zero_grid():
    params = EncoderParams.seeded(1, patch_side=4, dim=8)
    img = RasterImage(np.zeros((16, 16)))
    grid = encode(img, params)
    assert grid.rows == grid.cols == 4
    assert np.array_equal(grid.values, np.zeros((4, 4, 8)))


def test_encode_is_deterministic(rng):
    params = EncoderParams.seeded(5, patch_side=4, dim=8)
    img = RasterImage(rng.integers(0, 256, (16, 16)).astype(float))
    a = encode(img, params)
    b = encode(img, params)
    assert np.array_equal(a.values, b.values)


def test_single_patch_hand_oracle():
    # patch_side=2, dim=3, known projection: one 12-step dot product by hand
    proj = np.arange(12, dtype=float).reshape(4, 3) / 10.0
    params = EncoderParams(patch_side=2, projection=proj)
    pixels = np.array([[51.0, 102.0], [153.0, 204.0]])
    img = RasterImage(pixels)
    grid = encode(img, params)
    v = pixels.reshape(-1) / 255.0  # [0.2, 0.4, 0.6, 0.8]
    expected = [sum(v[i] * proj[i, d] for i in range(4)) for d in range(3)]
    assert grid.values[0, 0] == pytest.approx(expected, abs=1e-12)


def test_linearity_in_intensity(rng):
    params = EncoderParams.seeded(2, patch_side=4, dim=6)
    base = rng.integers(0, 64, (16, 16)).astype(float)
    a = encode(RasterImage(base), params).values
    b = encode(RasterImage(base * 3.0), params).values
    assert np.allclose(b, 3.0 * a, rtol=1e-6, atol=1e-12)


def test_shared_weight_alignment(rng):
    # identical pixel content encodes identically regardless of how it arrived
    params = EncoderParams.seeded(3, patch_side=4, dim=8)
    content = rng.integers(0, 256, (16, 16)).astype(float)
    as_global = RasterImage(content)
    as_crop = RasterImage(content.copy())
    assert np.array_equal(encode(as_global, params).values, encode(as_crop, params).values)


def test_seed_changes_weights():
    a = EncoderParams.seeded(1, patch_side=4, dim=4)
    b = EncoderParams.seeded(2, patch_side=4, dim=4)
    assert not np.array_equal(a.projection, b.projection)
    again = EncoderParams.seeded(1, patch_side=4, dim=4)
    assert np.array_equal(a.projection, again.projection)


def test_fan_in_scaled_init_range():
    params = EncoderParams.seeded(4, patch_side=28, dim=16)
    a = 1.0 / np.sqrt(28 * 28)
    assert np.abs(params.projection).max() <= a


def test_indivisible_side_is_shape_error():
    params = EncoderParams.seeded(1, patch_side=5, dim=4)
    with pytest.raises(ValueError, match="shape"):
        encode(RasterImage(np.zeros((16, 16))), params)


def test_nonsquare_rejected():
    params = EncoderParams.seeded(1, patch_side=4, dim=4)
    with pytest.raises(ValueError, match="square"):
        encode(RasterImage(np.zeros((16, 8))), params)


def test_feature_grid_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        FeatureGrid(np.array([[[np.nan, 0.0]]]))


def test_seeded_projection_is_float32_representable():
    params = EncoderParams.seeded(9, patch_side=4, dim=8)
    assert np.array_equal(params.projection.astype(np.float32).astype(np.float64), params.projection)


@pytest.mark.parametrize("fan_in", [16, 784])
@pytest.mark.parametrize("width", [1, 6, 8, 16, 17, 64])
def test_cyclic_padding_keeps_rows_of_the_full_grid_product(fan_in, width):
    """A BLAS fact about the encoder projection's 256-row products: any
    sorted subset of the grid's 256 patch rows, repeated cyclically back up
    to 256 rows and projected, gives exactly those rows of the full product.
    Mask2Token pads with zero rows instead (the tests below); this records
    that the cyclic pad is bit-equal too."""
    rng = np.random.default_rng(fan_in * 100 + width)
    x = rng.integers(0, 256, (256, fan_in)) / 255.0
    w = rng.uniform(-1, 1, (fan_in, width)).astype(np.float32).astype(np.float64)
    full = x @ w
    for m in [1, 2, 7, 31, 52, 80, 96, 97, 129, 255, 256]:
        sel = np.sort(rng.choice(256, m, replace=False))
        got = np.resize(x[sel], (256, fan_in)) @ w
        assert np.array_equal(got[:m], full[sel]), m


@pytest.mark.parametrize("patch_side", [4, 28])
def test_zero_padding_keeps_rows_of_the_full_grid_product(patch_side):
    """The identity Mask2Token's projection rests on: any sorted subset of
    the grid's 256 patch rows, placed first in 256 rows with zero rows after
    it and projected, gives exactly those rows of the full product.  Every
    width 1-64 is tried, and across the widths every count of kept rows
    1-256."""
    fan_in = patch_side * patch_side
    rng = np.random.default_rng(fan_in)
    x = rng.integers(0, 256, (256, fan_in)) / 255.0
    for width in range(1, 65):
        w = rng.uniform(-1, 1, (fan_in, width)).astype(np.float32).astype(np.float64)
        full = x @ w
        for m in sorted({1, 255, *range(width, 257, 64)}):
            sel = np.sort(rng.choice(256, m, replace=False))
            padded = np.zeros((256, fan_in))
            padded[:m] = x[sel]
            got = (padded @ w)[:m]
            assert np.array_equal(got, full[sel]), (
                f"patch side {patch_side}, width {width}, {m} kept rows: a row of the zero-padded 256-row "
                "product is not bit-equal to that row of the full product, so this BLAS's result for a row "
                "now depends on the other rows, and Mask2Token's zero-row pad no longer gives encode's tokens"
            )


@pytest.mark.parametrize("patch_side", [4, 28])
def test_rows_keep_their_bits_at_every_offset_of_a_grid_run(patch_side):
    """The identity the prompt batch's shared runs rest on: a block of rows
    at any offset of a 256-row operand, with other rows before it and zero
    rows after, is projected to exactly the bits it gets placed first in a
    zero-padded 256-row product.  Every width 1-64 is tried, each with its
    own block size, and each width's placements cover every offset 0-255."""
    fan_in = patch_side * patch_side
    rng = np.random.default_rng(fan_in + 1)
    for width in range(1, 65):
        w = rng.uniform(-1, 1, (fan_in, width)).astype(np.float32).astype(np.float64)
        m = 1 + 53 * width % 128  # 64 distinct block sizes in 2-128
        first = np.zeros((256, fan_in))
        first[:m] = rng.integers(0, 256, (m, fan_in)) / 255.0
        want = (first @ w)[:m]
        for offset in sorted({*range(0, 256 - m, m), 256 - m}):
            run = np.zeros((256, fan_in))
            run[:offset] = rng.integers(0, 256, (offset, fan_in)) / 255.0
            run[offset : offset + m] = first[:m]
            assert np.array_equal((run @ w)[offset : offset + m], want), (
                f"patch side {patch_side}, width {width}, {m} rows at offset {offset}: rows of a 256-row product "
                "are not bit-equal to the same rows placed first in a zero-padded 256-row product, so this BLAS's "
                "result for a row now depends on its offset, and the prompt batch's shared runs no longer give "
                "mask2token's tokens"
            )
