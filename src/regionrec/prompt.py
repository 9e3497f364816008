"""Mask2Token assembly: geometry + encoder + grid selection per mask.

The per-mask pipeline is: tight bbox -> context crop window (scale >= 1) ->
downsample the mask to the token grid -> bilinear-crop only the pixels of the
grid rows and columns that hold an active cell -> project only the active
cells' patches, in row-major order.  Every token is bit-identical to encoding
the whole crop and selecting the active cells.  The global image is
square-stretched through the same bilinear path and encoded whole with the
same weights, so crop features and global features live in one embedding
space.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .attnmask import SequenceLayout, canonical_layout
from .encoder import EncoderParams, FeatureGrid, GRID_SIDE, encode
from .maskio import BinaryMask, RasterImage, RunLengthMask, _readonly
from .region import _check_dims, _resample, context_crop_window, downsample_to_grid, resize_image, tight_bbox, window_axes

MAX_MASKS = 30
CONTEXT_SCALE = 2.0
OUTPUT_SLOTS = 8

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


def mask2token(
    image: RasterImage,
    mask: BinaryMask | RunLengthMask,
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
    mask_index: int = 0,
) -> MaskTokenSet:
    """Run the per-mask pipeline on the active cells only.

    The tokens are bit-identical to ``encode(extract_and_resize(...))`` at
    the active cells: each resampled pixel has its own taps, and the
    projection keeps ``encode``'s (cells, p*p) @ (p*p, dim) operand shape by
    repeating the active patches cyclically up to every cell of the grid.
    The mask must have the image's width and height (``ValueError`` otherwise).
    """
    _check_dims(image, mask)
    mask = BinaryMask(mask.bits)  # a run-length mask is decoded once, here
    window = context_crop_window(tight_bbox(mask), scale, image.width, image.height)
    gm = downsample_to_grid(mask, window, GRID_SIDE, GRID_SIDE)
    idx = np.argwhere(gm.active)
    p = params.patch_side
    rows, r = np.unique(idx[:, 0], return_inverse=True)
    cols, c = np.unique(idx[:, 1], return_inverse=True)
    xs, ys = window_axes(window, p * GRID_SIDE)
    pixels = np.arange(p)
    crop = _resample(image, xs[(cols[:, None] * p + pixels).ravel()], ys[(rows[:, None] * p + pixels).ravel()])
    patches = (crop.data / 255.0).reshape(len(rows), p, len(cols), p).transpose(0, 2, 1, 3)[r, c]
    padded = np.resize(patches.reshape(len(idx), p * p), (GRID_SIDE * GRID_SIDE, p * p))
    tokens = (padded @ params.projection)[: len(idx)]
    return MaskTokenSet(tokens=tokens, grid_indices=idx, mask_index=mask_index)


def encode_global(image: RasterImage, params: EncoderParams) -> FeatureGrid:
    """Square-stretch the whole image to the encoder input and encode it."""
    side = params.patch_side * GRID_SIDE
    return encode(resize_image(image, side, side), params)


def build_prompt_batch(
    image: RasterImage,
    masks: list[BinaryMask | RunLengthMask],
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
) -> PromptBatch:
    """Encode the global image once and every mask independently, in order.

    Each set is exactly what ``mask2token`` gives for that mask alone.
    """
    if not masks:
        raise ValueError("need at least one mask")
    image_tokens = encode_global(image, params)
    sets = tuple(
        mask2token(image, m, params, scale=scale, mask_index=i)
        for i, m in enumerate(masks)
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
