"""Mask2Token assembly: geometry + encoder + grid selection per mask.

The per-mask pipeline reads the mask's runs: tight bbox -> context crop
window (scale >= 1) -> downsample the mask to the token grid -> bilinear-crop
only the pixels of the grid rows and columns that hold an active cell ->
project only the active cells' patches, in row-major order.  The global
image is square-stretched through the same bilinear path, one grid row at a
time, and projected with the same weights, so crop features and global
features live in one embedding space.

Every projection is a run of exactly 256 rows, ``encode``'s operand shape:
patches divided by 255 and laid end to end, zero rows after them, one
product.  A batch's consecutive masks share runs, a lone ``mask2token``
fills one by itself, and the global image's 16 bands fill one.  A row's bits
do not depend on its offset in a run, so every token is bit-identical to
encoding the whole crop or image and selecting the cells.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .attnmask import SequenceLayout, canonical_layout
from .encoder import EncoderParams, FeatureGrid, GRID_SIDE
from .maskio import RasterImage, RunLengthMask, _readonly
from .region import _check_dims, _resample, crop_window_and_grid, stretch_axes, window_axes

MAX_MASKS = 30
CONTEXT_SCALE = 2.0
OUTPUT_SLOTS = 8
_RUN_ROWS = GRID_SIDE * GRID_SIDE  # rows of every projection operand, as in encode

_MAGIC = b"MTS0"


@dataclass(frozen=True)
class MaskTokenSet:
    """Features selected for one mask, with grid-cell provenance."""

    tokens: np.ndarray = field(repr=False)  # (count, dim)
    grid_indices: np.ndarray = field(repr=False)  # (count, 2) as (row, col)
    mask_index: int = 0

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=np.float64)
        idx = np.asarray(self.grid_indices, dtype=np.int64)
        if tokens.ndim != 2 or idx.shape != (tokens.shape[0], 2):
            raise ValueError("tokens and grid_indices are inconsistent")
        if tokens.shape[0] < 1:
            raise ValueError("token set must be non-empty")
        # strict row-major ordering of provenance cells
        keys = idx[:, 0].astype(np.int64) * (2**20) + idx[:, 1]
        if not (np.diff(keys) > 0).all():
            raise ValueError("grid_indices must be strictly increasing row-major")
        object.__setattr__(self, "tokens", _readonly(tokens))
        object.__setattr__(self, "grid_indices", _readonly(idx))

    @property
    def count(self) -> int:
        return int(self.tokens.shape[0])


@dataclass(frozen=True)
class PromptBatch:
    """Global image tokens plus the ordered per-mask token sets."""

    image_tokens: FeatureGrid
    mask_token_sets: tuple[MaskTokenSet, ...]

    def __post_init__(self):
        sets = tuple(self.mask_token_sets)
        object.__setattr__(self, "mask_token_sets", sets)
        if not 1 <= len(sets):
            raise ValueError("batch needs at least one mask")
        for i, ts in enumerate(sets):
            if ts.mask_index != i:
                raise ValueError("mask_index values must be 0..K-1 in order")

    @property
    def num_masks(self) -> int:
        return len(self.mask_token_sets)

    def layout(self, text_len: int, output_slots: int) -> SequenceLayout:
        """The canonical layout of this batch's prompt, ``output_slots`` slots per object."""
        grid = self.image_tokens
        return canonical_layout(grid.rows * grid.cols, text_len, [ts.count for ts in self.mask_token_sets], output_slots)


def _cells(image: RasterImage, mask: RunLengthMask, params: EncoderParams, scale: float):
    """The mask's active grid cells, row-major, and their crop patches,
    (count, p, p): only the pixels of the grid rows and columns that hold an
    active cell are resampled."""
    _check_dims(image, mask)
    window, gm = crop_window_and_grid(mask, scale, GRID_SIDE, GRID_SIDE)
    idx = np.argwhere(gm.active)
    p = params.patch_side
    rows, r = np.unique(idx[:, 0], return_inverse=True)
    cols, c = np.unique(idx[:, 1], return_inverse=True)
    xs, ys = window_axes(window, p * GRID_SIDE)
    pixels = np.arange(p)
    crop = _resample(image, xs[(cols[:, None] * p + pixels).ravel()], ys[(rows[:, None] * p + pixels).ravel()])
    return idx, crop.data.reshape(len(rows), p, len(cols), p).transpose(0, 2, 1, 3)[r, c]


def _runs(items):
    """Consecutive ``(key, patches)`` items grouped so that each group's
    patches fill at most ``_RUN_ROWS`` rows; a group closes when the next
    item would overflow it."""
    group, rows = [], 0
    for item in items:
        if rows + len(item[1]) > _RUN_ROWS:
            yield group
            group, rows = [], 0
        group.append(item)
        rows += len(item[1])
    yield group


def _project(items, params: EncoderParams):
    """Yield ``(key, tokens)`` for each ``(key, patches)`` item, in order.

    Each group of ``_runs`` is one run: its patches divided by 255 and laid
    end to end, zero rows after them up to ``_RUN_ROWS``, and one product
    with the projection.  Only one run's patches are held at a time.
    """
    run = np.zeros((_RUN_ROWS, params.patch_side**2))
    dirty = 0  # rows from here on are zero
    for group in _runs(items):
        spans, used = [], 0
        for key, patches in group:
            n = len(patches)
            np.divide(patches.reshape(n, -1), 255.0, out=run[used : used + n])
            spans.append((key, used, used + n))
            used += n
        run[used:dirty] = 0.0
        dirty = used
        tokens = run @ params.projection
        tokens.flags.writeable = False  # so the token sets keep views of it, not copies
        yield from ((key, tokens[a:b]) for key, a, b in spans)


def mask2token(
    image: RasterImage,
    mask: RunLengthMask,
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
    mask_index: int = 0,
) -> MaskTokenSet:
    """Run the per-mask pipeline on the active cells only.

    The tokens are bit-identical to ``encode(extract_and_resize(...))`` at
    the active cells: each resampled pixel has its own taps, and the
    projection is a 256-row run that holds this mask's patches alone.  The
    box and the grid come from the mask's runs, cut once into column pieces;
    no raster is decoded.  The mask must have the image's width and height
    (``ValueError`` otherwise).
    """
    ((idx, tokens),) = _project([_cells(image, mask, params, scale)], params)
    return MaskTokenSet(tokens=tokens, grid_indices=idx, mask_index=mask_index)


def encode_global(image: RasterImage, params: EncoderParams) -> FeatureGrid:
    """Square-stretch the whole image to the encoder input and encode it,
    bit-identical to ``encode(resize_image(...))``.  The stretch is resampled
    one grid row (p output rows) at a time, and the 16 bands' patches fill
    one 256-row run, so no encoder-sized image is built."""
    p, g = params.patch_side, GRID_SIDE
    xs, ys = stretch_axes(image, p * g, p * g)

    def band(row):  # the grid row's g patches, (g, p, p)
        return _resample(image, xs, ys[row * p : (row + 1) * p]).data.reshape(p, g, p).transpose(1, 0, 2)

    tokens = [t for _, t in _project(((row, band(row)) for row in range(g)), params)]
    return FeatureGrid(np.concatenate(tokens).reshape(g, g, params.dim))


def build_prompt_batch(
    image: RasterImage,
    masks: list[RunLengthMask],
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
) -> PromptBatch:
    """Encode the global image once and every mask independently, in order.

    Consecutive masks share 256-row projection runs; a row's bits do not
    depend on its offset in a run, so each set is exactly what
    ``mask2token`` gives for that mask alone.
    """
    if not masks:
        raise ValueError("need at least one mask")
    image_tokens = encode_global(image, params)
    cells = (_cells(image, m, params, scale) for m in masks)
    sets = tuple(
        MaskTokenSet(tokens=tokens, grid_indices=idx, mask_index=i)
        for i, (idx, tokens) in enumerate(_project(cells, params))
    )
    return PromptBatch(image_tokens=image_tokens, mask_token_sets=sets)


# ---------------------------------------------------------------------------
# Dump format: JSON descriptor plus a sidecar float32 blob with an 8-byte
# header (magic "MTS0", u16 count, u16 dim).
# ---------------------------------------------------------------------------


def dump_token_set(token_set: MaskTokenSet, json_path, blob_path) -> None:
    with open(blob_path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HH", token_set.count, token_set.tokens.shape[1]))
        fh.write(token_set.tokens.astype("<f4").tobytes())
    doc = {
        "mask_index": token_set.mask_index,
        "count": token_set.count,
        "dim": int(token_set.tokens.shape[1]),
        "grid_indices": token_set.grid_indices.tolist(),
    }
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
