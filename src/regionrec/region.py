"""Mask geometry: bounding boxes, context crop windows, bilinear resampling
and grid downsampling.

Coordinate conventions used throughout:

* pixel (x, y) occupies the unit square [x, x+1) x [y, y+1); its centre is
  (x + 0.5, y + 0.5);
* bounding boxes are half-open: x0/y0 inclusive, x1/y1 exclusive;
* resampling is bilinear with half-pixel-centre alignment and reads 0
  outside the source image (crop windows are never shifted to fit).

Resizes sample one x per output column and one y per output row, so the
bilinear pass is separable: taps and fractions are computed once per axis,
the horizontal blend runs only on the distinct source rows the vertical taps
read, and the same float operations in the same order as four corner fetches
keep every output bit-identical to the unseparated form.  Mask scans bound
the true bits with per-axis ``any`` and list pixels inside that box only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maskio import BinaryMask, RasterImage


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, x0/y0 inclusive, x1/y1 exclusive."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("bbox must have positive extent")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def center(self) -> tuple[float, float]:
        return (self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0


@dataclass(frozen=True)
class CropWindow:
    """Square window centred on a region; padding outside the image reads 0."""

    center_x: float
    center_y: float
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("window side must be >= 1")

    @property
    def x0(self) -> float:
        return self.center_x - self.side / 2.0

    @property
    def y0(self) -> float:
        return self.center_y - self.side / 2.0


@dataclass(frozen=True)
class GridMask:
    """Boolean occupancy over the token grid; at least one cell is active."""

    rows: int
    cols: int
    active: np.ndarray

    def __post_init__(self):
        active = np.asarray(self.active, dtype=bool)
        if active.shape != (self.rows, self.cols):
            raise ValueError("active shape does not match rows x cols")
        if not active.any():
            raise ValueError("grid mask has no active cell")
        active = active.copy()
        active.flags.writeable = False
        object.__setattr__(self, "active", active)


# ---------------------------------------------------------------------------
# Boxes and windows
# ---------------------------------------------------------------------------


def tight_bbox(mask: BinaryMask) -> BBox:
    """Minimal axis-aligned box containing every true bit."""
    ys = np.flatnonzero(mask.bits.any(axis=1))
    xs = np.flatnonzero(mask.bits.any(axis=0))
    return BBox(int(xs[0]), int(ys[0]), int(xs[-1]) + 1, int(ys[-1]) + 1)


def context_crop_window(bbox: BBox, scale: float, image_w: int, image_h: int) -> CropWindow:
    """Square window of side ceil(scale * longer bbox side), centred on the bbox.

    The window may extend past the image; extraction zero-fills rather than
    shifting, so the region stays centred.
    """
    if scale < 1.0:
        raise ValueError("scale must be >= 1")
    if image_w < 1 or image_h < 1:
        raise ValueError("image dimensions must be >= 1")
    side = math.ceil(scale * max(bbox.width, bbox.height))
    cx, cy = bbox.center
    return CropWindow(center_x=cx, center_y=cy, side=side)


# ---------------------------------------------------------------------------
# Bilinear resampling
# ---------------------------------------------------------------------------


def _axis_taps(coords: np.ndarray, size: int):
    """Left and right taps of 1-D sample coordinates and the fraction toward
    the right tap; a tap outside [0, size) becomes ``size``, the zero pad."""
    left = np.floor(coords).astype(np.int64)
    frac = coords - left
    taps = np.stack([left, left + 1])
    taps[(taps < 0) | (taps >= size)] = size
    return taps[0], taps[1], frac


def _resample(image: RasterImage, xs: np.ndarray, ys: np.ndarray) -> RasterImage:
    """Sample at pixel-centre coordinates xs (one per output column) and ys
    (one per output row); taps outside the image read 0."""
    h, w, c = image.data.shape
    x0, x1, dx = _axis_taps(xs, w)
    y0, y1, dy = _axis_taps(ys, h)

    # the distinct source rows the vertical taps read, zero-padded by one
    # row (index h) and one column (index w)
    rows, which = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    src = np.zeros((len(rows), w + 1, c))
    inside = rows < h
    src[inside, :w] = image.data[rows[inside]]

    # left * (1 - dx) + right * dx, then top * (1 - dy) + bot * dy, computed
    # in place: the same float operations with two temporaries, not five
    wx = dx[None, :, None]
    horiz = src[:, x0]
    horiz *= 1.0 - wx
    right = src[:, x1]
    right *= wx
    horiz += right
    wy = dy[:, None, None]
    out = horiz[which[: len(ys)]]
    out *= 1.0 - wy
    bot = horiz[which[len(ys) :]]
    bot *= wy
    out += bot
    return RasterImage.from_array(out)


def extract_and_resize(image: RasterImage, window: CropWindow, out_side: int) -> RasterImage:
    """Extract the window and resize to out_side x out_side."""
    if out_side < 1:
        raise ValueError("out_side must be >= 1")
    step = window.side / out_side
    coords = (np.arange(out_side) + 0.5) * step - 0.5
    return _resample(image, window.x0 + coords, window.y0 + coords)


def resize_image(image: RasterImage, out_w: int, out_h: int) -> RasterImage:
    """Square-stretch resize of the full image (no aspect preservation)."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be >= 1, got {out_w}x{out_h}")
    xs = (np.arange(out_w) + 0.5) * (image.width / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (image.height / out_h) - 0.5
    return _resample(image, xs, ys)


# ---------------------------------------------------------------------------
# Grid downsampling
# ---------------------------------------------------------------------------


def downsample_to_grid(mask: BinaryMask, window: CropWindow, rows: int, cols: int) -> GridMask:
    """Mark each grid cell active iff it contains >= 1 true pixel centre.

    Pixels outside the window are ignored (the mask is effectively clipped).
    If nothing lands inside — possible only for windows not derived from this
    mask — the cell containing the mask centroid is activated (clamped into
    the grid), preserving the >= 1 active cell invariant.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    box = tight_bbox(mask)
    ys, xs = np.nonzero(mask.bits[box.y0 : box.y1, box.x0 : box.x1])
    ys += box.y0
    xs += box.x0
    cx = (xs + 0.5 - window.x0) * (cols / window.side)
    cy = (ys + 0.5 - window.y0) * (rows / window.side)
    col = np.floor(cx).astype(np.int64)
    row = np.floor(cy).astype(np.int64)
    inside = (col >= 0) & (col < cols) & (row >= 0) & (row < rows)

    active = np.zeros((rows, cols), dtype=bool)
    if inside.any():
        active[row[inside], col[inside]] = True
    else:
        mx = float(xs.mean()) + 0.5
        my = float(ys.mean()) + 0.5
        c = int(np.clip(math.floor((mx - window.x0) * cols / window.side), 0, cols - 1))
        r = int(np.clip(math.floor((my - window.y0) * rows / window.side), 0, rows - 1))
        active[r, c] = True
    return GridMask(rows=rows, cols=cols, active=active)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


def _check_dims(image: RasterImage, mask: BinaryMask) -> None:
    if (image.width, image.height) != (mask.width, mask.height):
        raise ValueError(
            f"shape error: image {image.width}x{image.height} vs mask {mask.width}x{mask.height}"
        )
