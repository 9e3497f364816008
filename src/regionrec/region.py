"""Mask geometry: bounding boxes, context crop windows, bilinear resampling
and grid downsampling.

Coordinate conventions used throughout:

* pixel (x, y) occupies the unit square [x, x+1) x [y, y+1); its centre is
  (x + 0.5, y + 0.5);
* bounding boxes are half-open: x0/y0 inclusive, x1/y1 exclusive;
* an image is one plane, a (height, width) array;
* resampling is bilinear with half-pixel-centre alignment and reads 0
  outside the source image (crop windows are never shifted to fit).

Resizes sample one x per output column and one y per output row, so the
bilinear pass is separable: taps and fractions are computed once per axis,
the horizontal blend runs only on the distinct source rows the vertical taps
read, and the same float operations in the same order as four corner fetches
keep every output bit-identical to the unseparated form; only the source
columns the taps read are copied.

Mask geometry reads the runs, never a raster: ``_column_pieces`` cuts each
true run at column ends, the box is the pieces' extent, and each piece
marks its grid cells from its two end pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maskio import RasterImage, RunLengthMask, _readonly


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

    active: np.ndarray

    def __post_init__(self):
        active = np.asarray(self.active, dtype=bool)
        if active.ndim != 2:
            raise ValueError(f"grid mask must be a 2-D array, got shape {active.shape}")
        if not active.any():
            raise ValueError("grid mask has no active cell")
        object.__setattr__(self, "active", _readonly(active))


# ---------------------------------------------------------------------------
# Boxes and windows
# ---------------------------------------------------------------------------


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For items of the given lengths laid end to end: each element's item
    and its offset inside the item."""
    item = np.repeat(np.arange(len(lengths)), lengths)
    return item, np.arange(len(item)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _column_pieces(mask: RunLengthMask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask's true runs cut at column ends, in column-major order: each
    piece's column ``x`` and its first and last rows ``y0 <= y1``.  A run
    starts at column ``start // h``, row ``start % h``, and may cross into
    later columns."""
    h = mask.height
    ends = np.cumsum(mask.counts)
    stop = ends[1::2]  # true runs are [start, stop), none of them empty
    start = ends[: 2 * len(stop) : 2]
    first = start // h
    run, k = _ragged((stop - 1) // h - first + 1)
    x = first[run] + k
    return x, np.maximum(start[run] - x * h, 0), np.minimum(stop[run] - x * h, h) - 1


def _box(x: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> BBox:
    return BBox(int(x[0]), int(y0.min()), int(x[-1]) + 1, int(y1.max()) + 1)


def tight_bbox(mask: RunLengthMask) -> BBox:
    """Minimal axis-aligned box containing every true bit."""
    return _box(*_column_pieces(mask))


def context_crop_window(bbox: BBox, scale: float, image_w: int, image_h: int) -> CropWindow:
    """Square window of side ceil(scale * longer bbox side), centred on the bbox.

    The window may extend past the image; extraction zero-fills rather than
    shifting, so the region stays centred.
    """
    if not (math.isfinite(scale) and scale >= 1.0):
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
    h, w = image.data.shape
    x0, x1, dx = _axis_taps(xs, w)
    y0, y1, dy = _axis_taps(ys, h)

    # the distinct source rows the vertical taps read, over the source
    # columns lo..hi the horizontal taps read, zero-padded by one row
    # (index h) and one column (the last)
    rows, which = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    taps = np.concatenate([x0, x1])
    lo = taps.min()
    hi = taps[taps < w].max(initial=lo - 1)
    src = np.zeros((len(rows), hi - lo + 2))
    inside = rows < h
    src[inside, :-1] = image.data[rows[inside], lo : hi + 1]
    x0, x1 = (np.minimum(t - lo, hi - lo + 1) for t in (x0, x1))  # the pad tap w reads the pad column

    # left * (1 - dx) + right * dx, then top * (1 - dy) + bot * dy, computed
    # in place: the same float operations with two temporaries, not five
    wx = dx[None, :]
    horiz = np.take(src, x0, axis=1)
    horiz *= 1.0 - wx
    right = np.take(src, x1, axis=1)
    right *= wx
    horiz += right
    wy = dy[:, None]
    out = np.take(horiz, which[: len(ys)], axis=0)
    out *= 1.0 - wy
    bot = np.take(horiz, which[len(ys) :], axis=0)
    bot *= wy
    out += bot
    out.flags.writeable = False
    return RasterImage(out)


def window_axes(window: CropWindow, out_side: int) -> tuple[np.ndarray, np.ndarray]:
    """The x of each output column and the y of each output row when the
    window is resized to out_side x out_side."""
    if out_side < 1:
        raise ValueError("out_side must be >= 1")
    coords = (np.arange(out_side) + 0.5) * (window.side / out_side) - 0.5
    return window.x0 + coords, window.y0 + coords


def extract_and_resize(image: RasterImage, window: CropWindow, out_side: int) -> RasterImage:
    """Extract the window and resize to out_side x out_side."""
    return _resample(image, *window_axes(window, out_side))


def stretch_axes(image: RasterImage, out_w: int, out_h: int) -> tuple[np.ndarray, np.ndarray]:
    """The x of each output column and the y of each output row when the
    whole image is stretched to out_w x out_h."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be >= 1, got {out_w}x{out_h}")
    xs = (np.arange(out_w) + 0.5) * (image.width / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (image.height / out_h) - 0.5
    return xs, ys


def resize_image(image: RasterImage, out_w: int, out_h: int) -> RasterImage:
    """Square-stretch resize of the full image (no aspect preservation)."""
    return _resample(image, *stretch_axes(image, out_w, out_h))


# ---------------------------------------------------------------------------
# Grid downsampling
# ---------------------------------------------------------------------------


def _grid(pieces, window: CropWindow, rows: int, cols: int) -> GridMask:
    """``downsample_to_grid`` of the mask whose ``_column_pieces`` these are."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    x, y0, y1 = pieces

    def cell(v, origin, n):
        return np.floor((v + 0.5 - origin) * (n / window.side)).astype(np.int64)

    col, top, bot = cell(x, window.x0, cols), cell(y0, window.y0, rows), cell(y1, window.y0, rows)
    # a pixel's cell is monotone in its coordinate, so the ends bound each piece
    if not ((col >= 0) & (col < cols) & (top >= 0) & (bot < rows)).all():
        raise ValueError("crop window does not cover the mask")
    if window.side > rows:  # a pixel steps less than a cell, so a piece covers every cell top..bot
        marks = np.bincount(top * cols + col, minlength=(rows + 1) * cols)
        marks -= np.bincount((bot + 1) * cols + col, minlength=(rows + 1) * cols)
        active = np.cumsum(marks.reshape(rows + 1, cols)[:rows], axis=0) > 0
    else:  # the covering window is at most rows pixels a side, so few pixels to expand
        piece, k = _ragged(y1 - y0 + 1)
        active = np.zeros((rows, cols), dtype=bool)
        active[cell(y0[piece] + k, window.y0, rows), col[piece]] = True
    return GridMask(active)


def downsample_to_grid(mask: RunLengthMask, window: CropWindow, rows: int, cols: int) -> GridMask:
    """Mark each grid cell active iff it contains >= 1 true pixel centre.

    The window must hold every true pixel centre, as a ``context_crop_window``
    of the mask's box does at any scale; one that does not is rejected.
    """
    return _grid(_column_pieces(mask), window, rows, cols)


def crop_window_and_grid(mask: RunLengthMask, scale: float, rows: int, cols: int) -> tuple[CropWindow, GridMask]:
    """``context_crop_window`` of the mask's ``tight_bbox`` and
    ``downsample_to_grid`` of the mask in that window, from one cut of the
    runs into column pieces."""
    pieces = _column_pieces(mask)
    window = context_crop_window(_box(*pieces), scale, mask.width, mask.height)
    return window, _grid(pieces, window, rows, cols)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


def _check_dims(image: RasterImage, mask: RunLengthMask) -> None:
    if (image.width, image.height) != (mask.width, mask.height):
        raise ValueError(
            f"shape error: image {image.width}x{image.height} vs mask {mask.width}x{mask.height}"
        )
