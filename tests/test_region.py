import math

import numpy as np
import pytest

from regionrec.maskio import RasterImage, RunLengthMask
from regionrec.region import (
    BBox,
    CropWindow,
    context_crop_window,
    downsample_to_grid,
    extract_and_resize,
    resize_image,
    tight_bbox,
)

from conftest import oracle_bilinear, oracle_grid_cells, random_mask, raster_downsample_to_grid, raster_tight_bbox


# -- reference oracles: the unseparated four-fetch resampler and full-raster
# mask scans; the library must match them bit for bit


def ref_bilinear_sample(plane, xs, ys):
    """2-D grids of sample coordinates, four masked corner fetches."""
    h, w = plane.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    dx = xs - x0
    dy = ys - y0

    def fetch(yy, xx):
        valid = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
        out = np.zeros(xx.shape, dtype=np.float64)
        out[valid] = plane[yy[valid], xx[valid]]
        return out

    v00 = fetch(y0, x0)
    v01 = fetch(y0, x0 + 1)
    v10 = fetch(y0 + 1, x0)
    v11 = fetch(y0 + 1, x0 + 1)
    top = v00 * (1.0 - dx) + v01 * dx
    bot = v10 * (1.0 - dx) + v11 * dx
    return top * (1.0 - dy) + bot * dy


def ref_resample(image, xs, ys):
    """Sampling on the repeated (out_h, out_w) coordinate grids."""
    gx = xs[None, :].repeat(len(ys), axis=0)
    gy = ys[:, None].repeat(len(xs), axis=1)
    return ref_bilinear_sample(image.data, gx, gy)


def ref_extract_and_resize(image, window, out_side):
    coords = (np.arange(out_side) + 0.5) * (window.side / out_side) - 0.5
    return ref_resample(image, window.x0 + coords, window.y0 + coords)


def ref_resize_image(image, out_w, out_h):
    xs = (np.arange(out_w) + 0.5) * (image.width / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (image.height / out_h) - 0.5
    return ref_resample(image, xs, ys)


def ref_tight_bbox(mask):
    ys, xs = np.nonzero(mask.bits)
    return BBox(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def ref_downsample_to_grid(mask, window, rows, cols):
    """Full-raster scan of true pixels, each marking the cell it lands in."""
    ys, xs = np.nonzero(mask.bits)
    cx = (xs + 0.5 - window.x0) * (cols / window.side)
    cy = (ys + 0.5 - window.y0) * (rows / window.side)
    col = np.floor(cx).astype(np.int64)
    row = np.floor(cy).astype(np.int64)
    inside = (col >= 0) & (col < cols) & (row >= 0) & (row < rows)
    active = np.zeros((rows, cols), dtype=bool)
    active[row[inside], col[inside]] = True
    return active


def _random_image(rng, h, w):
    return RasterImage(rng.random((h, w)) * 255)


def _random_window(rng, w, h, out_side):
    """Window whose side is below, equal to or above out_side, centred inside,
    on the border or wholly off the image, on integer or half-integer centres."""
    sides = [max(1, out_side // 3), out_side, out_side * 3, int(rng.integers(1, 3 * out_side + 2))]
    side = int(rng.choice(sides))
    placement = rng.integers(3)
    if placement == 0:  # inside
        cx, cy = rng.random() * w, rng.random() * h
    elif placement == 1:  # straddling the border
        cx, cy = float(rng.choice([0, w])), rng.random() * h
    else:  # wholly outside
        cx, cy = -side - 1.0 - rng.random() * w, h + side + 1.0 + rng.random() * h
    if rng.random() < 0.5:
        cx, cy = math.floor(cx * 2) / 2, math.floor(cy * 2) / 2
    return CropWindow(center_x=float(cx), center_y=float(cy), side=side)


def _mask_from_points(points, w, h):
    bits = np.zeros((h, w), dtype=bool)
    for x, y in points:
        bits[y, x] = True
    return RunLengthMask.from_bits(bits)


# -- tight_bbox -------------------------------------------------------------


def test_bbox_point_mask():
    assert tight_bbox(_mask_from_points([(3, 5)], 10, 10)) == BBox(3, 5, 4, 6)


def test_bbox_full_mask():
    assert tight_bbox(RunLengthMask.from_bits(np.ones((10, 10), bool))) == BBox(0, 0, 10, 10)


def test_bbox_scans_all_true_bits():
    assert tight_bbox(_mask_from_points([(0, 0), (7, 2)], 10, 10)) == BBox(0, 0, 8, 3)


def test_bbox_matches_full_scan_oracle(rng):
    for _ in range(50):
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        mask = random_mask(rng, w, h, p=float(rng.random() * 0.3))
        assert tight_bbox(mask) == ref_tight_bbox(mask)


# -- context_crop_window ------------------------------------------------------


def test_window_scale_two_default():
    win = context_crop_window(BBox(0, 0, 10, 20), 2.0, 100, 100)
    assert win.side == 40
    assert (win.center_x, win.center_y) == (5.0, 10.0)


def test_window_scale_one_is_square_hull():
    win = context_crop_window(BBox(0, 0, 10, 20), 1.0, 100, 100)
    assert win.side == 20


def test_window_side_monotone_in_scale(rng):
    box = BBox(3, 4, 17, 11)
    sides = [context_crop_window(box, s, 50, 50).side for s in (1.0, 1.5, 2.0, 2.5, 3.0)]
    assert sides == sorted(sides)


def test_window_scale_below_one_rejected():
    with pytest.raises(ValueError):
        context_crop_window(BBox(0, 0, 2, 2), 0.5, 10, 10)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_window_scale_not_finite_rejected(scale):
    with pytest.raises(ValueError, match="scale must be >= 1"):
        context_crop_window(BBox(0, 0, 2, 2), scale, 10, 10)


# -- extract_and_resize -------------------------------------------------------


def test_resize_preserves_constants():
    img = RasterImage(np.full((9, 9), 77.0))
    win = CropWindow(center_x=4.5, center_y=4.5, side=7)
    out = extract_and_resize(img, win, 5)
    assert np.allclose(out.data, 77.0)


def test_identity_resize():
    arr = np.arange(36, dtype=float).reshape(6, 6)
    img = RasterImage(arr)
    win = CropWindow(center_x=3.0, center_y=3.0, side=6)
    out = extract_and_resize(img, win, 6)
    assert np.allclose(out.data, arr)


def test_upsample_matches_scalar_oracle():
    arr = np.array([[0.0, 255.0], [255.0, 0.0]])
    img = RasterImage(arr)
    win = CropWindow(center_x=1.0, center_y=1.0, side=2)
    out = extract_and_resize(img, win, 4)
    for r in range(4):
        for c in range(4):
            x = win.x0 + (c + 0.5) * 2 / 4 - 0.5
            y = win.y0 + (r + 0.5) * 2 / 4 - 0.5
            assert out.data[r, c] == pytest.approx(oracle_bilinear(arr, x, y), rel=1e-6, abs=1e-9)


def test_corner_window_zero_pads_like_hand_padded_reference(rng):
    arr = rng.random((8, 8)) * 255
    img = RasterImage(arr)
    box = BBox(0, 0, 2, 2)
    win = context_crop_window(box, 3.0, 8, 8)  # extends past the top-left corner
    out = extract_and_resize(img, win, 6)
    # reference: embed the image in a zero canvas so the window is interior
    pad = 16
    canvas = np.zeros((8 + 2 * pad, 8 + 2 * pad))
    canvas[pad : pad + 8, pad : pad + 8] = arr
    ref_win = CropWindow(center_x=win.center_x + pad, center_y=win.center_y + pad, side=win.side)
    ref = extract_and_resize(RasterImage(canvas), ref_win, 6)
    assert np.allclose(out.data, ref.data, atol=1e-12)


def test_resize_image_square_stretch():
    arr = np.arange(12, dtype=float).reshape(3, 4)
    out = resize_image(RasterImage(arr), 4, 4)
    assert (out.width, out.height) == (4, 4)
    for r in range(4):
        for c in range(4):
            x = (c + 0.5) * 4 / 4 - 0.5
            y = (r + 0.5) * 3 / 4 - 0.5
            assert out.data[r, c] == pytest.approx(oracle_bilinear(arr, x, y), abs=1e-9)


@pytest.mark.parametrize(
    "h,w", [(48, 64), (1, 30), (30, 1)], ids=["gray", "one-row", "one-column"]
)
@pytest.mark.parametrize("out_side", [1, 7, 16])
def test_extract_matches_reference_bit_for_bit(rng, h, w, out_side):
    img = _random_image(rng, h, w)
    for _ in range(40):
        win = _random_window(rng, w, h, out_side)
        out = extract_and_resize(img, win, out_side)
        assert np.array_equal(out.data, ref_extract_and_resize(img, win, out_side))


def test_extract_wholly_outside_reads_zero():
    img = RasterImage(np.full((8, 8), 9.0))
    out = extract_and_resize(img, CropWindow(center_x=-50.0, center_y=20.5, side=5), 4)
    assert out.data.shape == (4, 4) and not out.data.any()


@pytest.mark.parametrize("out_w,out_h", [(64, 64), (5, 3), (1, 1), (97, 13), (20, 150)])
def test_resize_image_matches_reference_bit_for_bit(rng, out_w, out_h):
    for h, w in [(48, 64), (1, 9), (9, 1)]:
        img = _random_image(rng, h, w)
        out = resize_image(img, out_w, out_h)
        assert np.array_equal(out.data, ref_resize_image(img, out_w, out_h))


# -- downsample_to_grid -------------------------------------------------------


def _window_for(mask, scale=1.0):
    return context_crop_window(tight_bbox(mask), scale, mask.width, mask.height)


def test_grid_full_mask_all_cells_active():
    mask = RunLengthMask.from_bits(np.ones((64, 64), bool))
    gm = downsample_to_grid(mask, _window_for(mask), 16, 16)
    assert int(gm.active.sum()) == 256


def test_grid_point_mask_single_cell():
    mask = _mask_from_points([(37, 11)], 64, 64)
    win = CropWindow(center_x=32.0, center_y=32.0, side=64)
    gm = downsample_to_grid(mask, win, 16, 16)
    assert int(gm.active.sum()) == 1
    # the geometrically containing cell: pixel centre (37.5, 11.5), cell size 4
    assert gm.active[int(11.5 // 4), int(37.5 // 4)]


def test_grid_matches_per_pixel_oracle(rng):
    for _ in range(50):
        mask = random_mask(rng, 64, 64, p=float(rng.random() * 0.3 + 0.01))
        win = _window_for(mask, scale=float(rng.choice([1.0, 1.5, 2.0])))
        gm = downsample_to_grid(mask, win, 16, 16)
        assert np.array_equal(gm.active, oracle_grid_cells(mask, win, 16, 16))


def test_grid_matches_full_scan_oracle(rng):
    for _ in range(60):
        h, w = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        mask = random_mask(rng, w, h, p=float(rng.random() * 0.2))
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        win = _window_for(mask, scale=float(rng.choice([1.0, 1.5, 2.0])))
        gm = downsample_to_grid(mask, win, rows, cols)
        assert np.array_equal(gm.active, ref_downsample_to_grid(mask, win, rows, cols))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-12, 1.5, 2.0, 3.7, 10.0, 1e3, 1e10, 1e100, 1e300])
def test_context_windows_cover_the_mask_at_every_scale(scale, rng):
    """``tight_bbox`` -> ``context_crop_window`` -> ``downsample_to_grid``
    never meets a window that misses the mask."""
    for _ in range(360):
        h, w = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        mask = random_mask(rng, w, h, p=float(rng.random() * 0.3))
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        win = _window_for(mask, scale=scale)
        gm = downsample_to_grid(mask, win, rows, cols)
        assert np.array_equal(gm.active, ref_downsample_to_grid(mask, win, rows, cols))


def test_grid_monotone_under_union(rng):
    for _ in range(20):
        m1 = random_mask(rng, 32, 32, p=0.05)
        m2 = random_mask(rng, 32, 32, p=0.05)
        union = RunLengthMask.from_bits(m1.bits | m2.bits)
        win = CropWindow(center_x=16.0, center_y=16.0, side=32)
        g1 = downsample_to_grid(m1, win, 16, 16)
        gu = downsample_to_grid(union, win, 16, 16)
        assert (gu.active | g1.active == gu.active).all()


@pytest.mark.parametrize(
    "window",
    [CropWindow(center_x=5.0, center_y=5.0, side=8), CropWindow(center_x=10.0, center_y=10.0, side=8)],
    ids=["misses-fully", "misses-partly"],
)
def test_grid_rejects_a_window_that_does_not_cover_the_mask(window):
    mask = _mask_from_points([(10, 10), (60, 60)], 64, 64)
    with pytest.raises(ValueError, match="crop window does not cover the mask"):
        downsample_to_grid(mask, window, 16, 16)


# -- box and grid from runs against the raster oracles -------------------------


def _random_runs(rng, h, w):
    """Counts of an h x w raster: runs of random lengths, some crossing one
    column and some several, with zero-length runs inserted at random."""
    counts, left = [], h * w
    while left:
        n = min(left, int(rng.choice([rng.integers(1, 4), rng.integers(1, h + 1), rng.integers(h, 3 * h + 1)])))
        counts.append(n)
        left -= n
    for _ in range(int(rng.integers(0, 3))):
        counts.insert(int(rng.integers(1, len(counts) + 1)), 0)
    return counts


def _run_cases(rng):
    """(mask, counts) pairs: random run lists, one-pixel masks anywhere,
    masks in boxes of 7-9 and 15-17 pixels a side, and masks on each image
    border."""
    cases = []
    while len(cases) < 300:
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        counts = _random_runs(rng, h, w)
        if any(counts[1::2]):
            cases.append((RunLengthMask(h, w, counts), counts))
    for h, w in [(1, 1), (1, 9), (9, 1), (23, 31)]:
        for x, y in [(0, 0), (w - 1, h - 1), (w // 2, h // 2), (w - 1, 0), (0, h - 1)]:
            counts = [x * h + y, 1, h * w - x * h - y - 1]
            cases.append((RunLengthMask(h, w, counts), counts))
    for side in (7, 8, 9, 15, 16, 17):  # context windows of side 14-18 at scale 2, 15-17 at scale 1
        bits = np.zeros((40, 40), bool)
        y, x = rng.integers(0, 40 - side, 2)
        bits[y : y + side, x : x + side] = rng.random((side, side)) < 0.3
        bits[y, x] = bits[y + side - 1, x + side - 1] = True
        cases.append((RunLengthMask.from_bits(bits), RunLengthMask.from_bits(bits).counts.tolist()))
    h, w = 37, 29
    for edge in [np.s_[0, :], np.s_[h - 1, :], np.s_[:, 0], np.s_[:, w - 1]]:
        bits = np.zeros((h, w), bool)
        bits[edge] = rng.random(bits[edge].shape) < 0.5
        bits[edge][0] = True
        cases.append((RunLengthMask.from_bits(bits), RunLengthMask.from_bits(bits).counts.tolist()))
    return cases


def test_box_and_grid_from_runs_equal_the_raster_oracles(rng):
    """Windows of side 15, 16 and 17 meet both grid paths at the edge: a
    side at most the grid side expands pixels, a larger one marks each
    column piece's cell range.  Context windows at scale 1 and 2 meet
    them, and so do windows of those sides on boxes of any size."""
    sides, crossed = set(), {"one": 0, "several": 0, "zero-run": 0}
    for mask, counts in _run_cases(rng):
        h = mask.height
        ends = np.cumsum(counts)
        starts = ends - counts
        crossed["one"] += any((e - 1) // h == s // h + 1 for s, e in zip(starts[1::2], ends[1::2]))
        crossed["several"] += any((e - 1) // h > s // h + 1 for s, e in zip(starts[1::2], ends[1::2]))
        crossed["zero-run"] += 0 in counts[1:]
        box = tight_bbox(mask)
        assert box == raster_tight_bbox(mask)
        for scale in (1.0, 2.0):
            win = context_crop_window(box, scale, mask.width, mask.height)
            sides.add((scale, win.side))
            got = downsample_to_grid(mask, win, 16, 16)
            assert np.array_equal(got.active, raster_downsample_to_grid(mask, win, 16, 16).active)
        for side in (15, 16, 17):
            win = CropWindow(center_x=box.center[0], center_y=box.center[1], side=side)
            try:
                want = raster_downsample_to_grid(mask, win, 16, 16).active
            except ValueError:
                with pytest.raises(ValueError, match="crop window does not cover the mask"):
                    downsample_to_grid(mask, win, 16, 16)
                continue
            sides.add((None, side))
            assert np.array_equal(downsample_to_grid(mask, win, 16, 16).active, want)
    met = {(1.0, 15), (1.0, 16), (1.0, 17), (2.0, 14), (2.0, 16), (2.0, 18), (None, 15), (None, 16), (None, 17)}
    assert met <= sides and min(crossed.values()) > 0, (sides, crossed)


@pytest.mark.parametrize(
    "window",
    [CropWindow(center_x=5.0, center_y=5.0, side=8), CropWindow(center_x=10.0, center_y=10.0, side=8),
     CropWindow(center_x=35.5, center_y=35.5, side=70)],
    ids=["misses-fully", "misses-partly", "covers"],
)
def test_the_cover_check_on_runs_is_the_raster_oracles(window):
    mask = _mask_from_points([(10, 10), (60, 60)], 64, 64)
    try:
        want = raster_downsample_to_grid(mask, window, 16, 16).active
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            downsample_to_grid(mask, window, 16, 16)
    else:
        assert np.array_equal(downsample_to_grid(mask, window, 16, 16).active, want)
