"""Shared test helpers: independent oracles, seeded generators, and the
PGM and DEC0 writers that only tests use.

The oracles here deliberately re-derive everything from first principles
(per-position tables built by scanning segments, pairwise rule predicates,
per-pixel loops) so they share no code path with the implementations they
check.
"""

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from regionrec import decoder
from regionrec.attnmask import Segment, SequenceLayout
from regionrec.maskio import RasterImage, RunLengthMask
from regionrec.region import BBox, GridMask

# kind codes local to the oracle
O_IMAGE, O_TEXT, O_SEP, O_MASK, O_OUT = range(5)

_KIND_BY_NAME = {"image": O_IMAGE, "text": O_TEXT, "sep": O_SEP, "mask": O_MASK, "out": O_OUT}


def oracle_position_table(layout: SequenceLayout):
    """Independent per-position (kind, instance) table from the segment list."""
    kinds, insts = [], []
    for seg in layout.segments:
        for _ in range(seg.length):
            kinds.append(_KIND_BY_NAME[seg.kind])
            insts.append(-1 if seg.index is None else seg.index)
    return np.asarray(kinds), np.asarray(insts)


def oracle_cascade_bits(layout: SequenceLayout, config) -> np.ndarray:
    """Brute-force pairwise evaluation of the decoupling rules for all (q, k).

    Rules, applied to the causal triangle:
      * separator rows see nothing;
      * region decoupling: a mask-row query never sees another mask segment;
      * output decoupling: an output-row query never sees an earlier chunk;
      * with both decouplings, an output-row query sees only image, text, its
        own mask segment, and its own chunk.
    """
    kinds, insts = oracle_position_table(layout)
    n = len(kinds)
    kq, kk = kinds[:, None], kinds[None, :]
    iq, ik = insts[:, None], insts[None, :]
    vis = np.arange(n)[None, :] <= np.arange(n)[:, None]

    vis &= kq != O_SEP
    if config.region_decouple:
        vis &= ~((kq == O_MASK) & (kk == O_MASK) & (iq != ik))
    if config.output_decouple:
        vis &= ~((kq == O_OUT) & (kk == O_OUT) & (ik < iq))
    if config.region_decouple and config.output_decouple:
        allowed = (kk == O_IMAGE) | (kk == O_TEXT) | ((kk == O_OUT) & (ik == iq))
        allowed |= (kk == O_MASK) & (ik == iq)
        vis &= (kq != O_OUT) | allowed
    return vis


def random_layout(rng: np.random.Generator, k_max: int = 8, len_max: int = 6) -> SequenceLayout:
    """Random valid layout: image, optional text, masks with optional
    separators, then output chunks with optional separators."""
    k = int(rng.integers(1, k_max + 1))
    segs = [Segment("image", int(rng.integers(1, len_max + 1)))]
    if rng.random() < 0.8:
        segs.append(Segment("text", int(rng.integers(1, len_max + 1))))
    for i in range(k):
        segs.append(Segment("mask", int(rng.integers(1, len_max + 1)), i))
        if rng.random() < 0.7:
            segs.append(Segment("sep", 1))
    for i in range(k):
        segs.append(Segment("out", int(rng.integers(1, len_max + 1)), i))
        if i < k - 1 and rng.random() < 0.5:
            segs.append(Segment("sep", 1))
    return SequenceLayout(tuple(segs))


def random_mask(rng: np.random.Generator, w: int, h: int, p: float = 0.2) -> RunLengthMask:
    bits = rng.random((h, w)) < p
    if not bits.any():
        bits[rng.integers(h), rng.integers(w)] = True
    return RunLengthMask.from_bits(bits)


def raster_tight_bbox(mask: RunLengthMask) -> BBox:
    """The box of the decoded raster, scanned along both axes."""
    bits = mask.bits
    ys = np.flatnonzero(bits.any(axis=1))
    xs = np.flatnonzero(bits.any(axis=0))
    return BBox(int(xs[0]), int(ys[0]), int(xs[-1]) + 1, int(ys[-1]) + 1)


def raster_downsample_to_grid(mask: RunLengthMask, window, rows: int, cols: int) -> GridMask:
    """The grid of the decoded raster: each true pixel inside the box marks
    its cell; a window that misses a true pixel centre is rejected."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    box = raster_tight_bbox(mask)
    ys, xs = np.nonzero(mask.bits[box.y0 : box.y1, box.x0 : box.x1])
    col = np.floor((xs + box.x0 + 0.5 - window.x0) * (cols / window.side)).astype(np.int64)
    row = np.floor((ys + box.y0 + 0.5 - window.y0) * (rows / window.side)).astype(np.int64)
    if not ((col >= 0) & (col < cols) & (row >= 0) & (row < rows)).all():
        raise ValueError("crop window does not cover the mask")
    active = np.zeros((rows, cols), dtype=bool)
    active[row, col] = True
    return GridMask(active)


def oracle_grid_cells(mask: RunLengthMask, window, rows: int, cols: int) -> np.ndarray:
    """Per-pixel loop: mark the cell containing each true pixel centre."""
    active = np.zeros((rows, cols), dtype=bool)
    bits = mask.bits
    for y in range(mask.height):
        for x in range(mask.width):
            if not bits[y, x]:
                continue
            cx = (x + 0.5 - window.x0) * cols / window.side
            cy = (y + 0.5 - window.y0) * rows / window.side
            if 0 <= cx < cols and 0 <= cy < rows:
                active[int(cy), int(cx)] = True
    return active


def oracle_bilinear(plane: np.ndarray, x: float, y: float) -> float:
    """Scalar bilinear sample with zero outside, evaluated longhand."""
    h, w = plane.shape
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    dx, dy = x - x0, y - y0

    def at(yy, xx):
        if 0 <= xx < w and 0 <= yy < h:
            return float(plane[yy, xx])
        return 0.0

    return (
        at(y0, x0) * (1 - dx) * (1 - dy)
        + at(y0, x0 + 1) * dx * (1 - dy)
        + at(y0 + 1, x0) * (1 - dx) * dy
        + at(y0 + 1, x0 + 1) * dx * dy
    )


def write_pgm(image: RasterImage, path) -> None:
    """Write an image as P5, its values rounded and clipped to 0..255."""
    vals = np.clip(np.rint(image.data), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(vals.tobytes())


def _tensor(params, name: str) -> np.ndarray:
    """The tensor a ``decoder._weight_layout`` name refers to."""
    if name.startswith("blocks."):
        _, i, field_name = name.split(".")
        return getattr(params.blocks[int(i)], field_name)
    return getattr(params, name)


def save_decoder_params(params, blob_path, vocab_path) -> None:
    """Write ``params`` as a DEC0 blob (the format ``decoder.load_decoder_params``
    reads) and the vocabulary as a JSON array."""
    layout = decoder._weight_layout(len(params.vocab), params.dim, params.layers, params.enc_dim, params.max_len)
    with open(blob_path, "wb") as fh:
        fh.write(decoder._MAGIC)
        fh.write(struct.pack("<HBB", params.dim, params.heads, params.layers))
        fh.write(struct.pack("<IIII", len(params.vocab), params.max_len, params.enc_dim, 1))
        for name, _, _ in layout:
            fh.write(np.asarray(_tensor(params, name)).astype("<f4").tobytes())
    with open(vocab_path, "w", encoding="ascii") as fh:
        json.dump(list(params.vocab), fh)
        fh.write("\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
