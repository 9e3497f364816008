"""Mask geometry: bounding boxes, context crop windows, bilinear resampling,
grid downsampling, geometric prompt shapes, and whole-image mask renderings.

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
from scipy.ndimage import convolve1d

from .maskio import BinaryMask, RasterImage

_EPS = 1e-9


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

    def count(self) -> int:
        return int(self.active.sum())


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
# Geometric prompt shapes
# ---------------------------------------------------------------------------


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, no duplicate endpoint."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.float64)


def min_area_rect(points: np.ndarray) -> tuple[float, float, tuple]:
    """Minimum-area enclosing rectangle of a point set.

    Returns (angle, area, extents) where extents = (minx, maxx, miny, maxy)
    in the frame rotated by -angle.  Uses the classic fact that an optimal
    rectangle shares an edge direction with the convex hull.
    """
    hull = _convex_hull(np.asarray(points, dtype=np.float64))
    if len(hull) == 1:
        return 0.0, 0.0, (hull[0, 0], hull[0, 0], hull[0, 1], hull[0, 1])
    best = None
    m = len(hull)
    for i in range(m):
        dx, dy = hull[(i + 1) % m] - hull[i]
        if dx == 0.0 and dy == 0.0:
            continue
        angle = math.atan2(dy, dx)
        c, s = math.cos(-angle), math.sin(-angle)
        rx = hull[:, 0] * c - hull[:, 1] * s
        ry = hull[:, 0] * s + hull[:, 1] * c
        area = (rx.max() - rx.min()) * (ry.max() - ry.min())
        if best is None or area < best[1]:
            best = (angle, area, (rx.min(), rx.max(), ry.min(), ry.max()))
    return best


def rotated_bbox_mask(mask: BinaryMask) -> BinaryMask:
    """Rasterised minimum-area rotated rectangle enclosing all true bits.

    The rectangle encloses the full unit squares of the true pixels, so every
    input pixel centre is strictly covered in the output.
    """
    ys, xs = np.nonzero(mask.bits)
    # all four corners of every true pixel square
    corners = np.empty((len(xs) * 4, 2), dtype=np.float64)
    corners[0::4] = np.stack([xs, ys], axis=1)
    corners[1::4] = np.stack([xs + 1, ys], axis=1)
    corners[2::4] = np.stack([xs, ys + 1], axis=1)
    corners[3::4] = np.stack([xs + 1, ys + 1], axis=1)
    angle, _, (minx, maxx, miny, maxy) = min_area_rect(corners)

    gy, gx = np.mgrid[0 : mask.height, 0 : mask.width]
    px = gx + 0.5
    py = gy + 0.5
    c, s = math.cos(-angle), math.sin(-angle)
    rx = px * c - py * s
    ry = px * s + py * c
    inside = (
        (rx >= minx - _EPS) & (rx <= maxx + _EPS) & (ry >= miny - _EPS) & (ry <= maxy + _EPS)
    )
    return BinaryMask.from_array(inside)


def bounding_ellipse_mask(mask: BinaryMask) -> BinaryMask:
    """Axis-aligned ellipse inscribed in the tight bbox scaled by sqrt(2).

    Scaling the bbox by sqrt(2) about its centre makes the inscribed ellipse
    pass through the original bbox corners, so it contains every true bit.
    """
    box = tight_bbox(mask)
    cx, cy = box.center
    a = math.sqrt(2.0) * box.width / 2.0
    b = math.sqrt(2.0) * box.height / 2.0
    gy, gx = np.mgrid[0 : mask.height, 0 : mask.width]
    nx = (gx + 0.5 - cx) / a
    ny = (gy + 0.5 - cy) / b
    inside = nx * nx + ny * ny <= 1.0 + 1e-7
    return BinaryMask.from_array(inside)


# ---------------------------------------------------------------------------
# Whole-image mask renderings
# ---------------------------------------------------------------------------


def _check_dims(image: RasterImage, mask: BinaryMask) -> None:
    if (image.width, image.height) != (mask.width, mask.height):
        raise ValueError(
            f"shape error: image {image.width}x{image.height} vs mask {mask.width}x{mask.height}"
        )


def render_fore2token(
    image: RasterImage, mask: BinaryMask, window: CropWindow, out_side: int = 448
) -> RasterImage:
    """White-fill the background, keep the foreground, then crop and resize."""
    _check_dims(image, mask)
    fg = mask.bits[:, :, None]
    composited = RasterImage.from_array(np.where(fg, image.data, 255.0))
    return extract_and_resize(composited, window, out_side)


def gaussian_blur(image: RasterImage, sigma: float) -> RasterImage:
    """Separable Gaussian blur, kernel radius ceil(3*sigma), zero-padded borders."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    out = image.data
    out = convolve1d(out, kernel, axis=0, mode="constant", cval=0.0)
    out = convolve1d(out, kernel, axis=1, mode="constant", cval=0.0)
    return RasterImage.from_array(out)


def render_blur2token(
    image: RasterImage,
    mask: BinaryMask,
    window: CropWindow,
    sigma: float = 10.0,
    out_side: int = 448,
) -> RasterImage:
    """Blur the background, keep the foreground, then crop and resize."""
    _check_dims(image, mask)
    blurred = gaussian_blur(image, sigma)
    fg = mask.bits[:, :, None]
    composited = RasterImage.from_array(np.where(fg, image.data, blurred.data))
    return extract_and_resize(composited, window, out_side)
