"""Mask2Token assembly: geometry + encoder + grid selection per mask.

The per-mask pipeline is: tight bbox -> context crop window (scale >= 1) ->
bilinear crop to the encoder input side -> encode -> downsample the mask to
the token grid -> select the features at active cells in row-major order.
The global image is square-stretched through the same bilinear path and
encoded with the same weights, so crop features and global features live in
one embedding space.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, FeatureGrid, GRID_SIDE, encode
from .maskio import BinaryMask, RasterImage
from .region import _check_dims, context_crop_window, downsample_to_grid, extract_and_resize, resize_image, tight_bbox

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
        tokens = tokens.copy()
        tokens.flags.writeable = False
        idx = idx.copy()
        idx.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "grid_indices", idx)

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


def mask2token(
    image: RasterImage,
    mask: BinaryMask,
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
    grid: int = GRID_SIDE,
    mask_index: int = 0,
) -> MaskTokenSet:
    """Run the full per-mask pipeline and select active-cell features.

    The mask must have the image's width and height (``ValueError`` otherwise).
    """
    _check_dims(image, mask)
    bbox = tight_bbox(mask)
    window = context_crop_window(bbox, scale, image.width, image.height)
    input_side = params.patch_side * grid
    crop = extract_and_resize(image, window, input_side)
    feats = encode(crop, params)
    gm = downsample_to_grid(mask, window, grid, grid)
    idx = np.argwhere(gm.active)
    tokens = feats.values[gm.active]
    return MaskTokenSet(tokens=tokens, grid_indices=idx, mask_index=mask_index)


def encode_global(image: RasterImage, params: EncoderParams, grid: int = GRID_SIDE) -> FeatureGrid:
    """Square-stretch the whole image to the encoder input and encode it."""
    side = params.patch_side * grid
    return encode(resize_image(image, side, side), params)


def build_prompt_batch(
    image: RasterImage,
    masks: list[BinaryMask],
    params: EncoderParams,
    scale: float = CONTEXT_SCALE,
    max_masks: int = MAX_MASKS,
    grid: int = GRID_SIDE,
) -> PromptBatch:
    """Encode the global image once and every mask independently, in order.

    Each set is exactly what ``mask2token`` gives for that mask alone.
    """
    if not masks:
        raise ValueError("need at least one mask")
    if len(masks) > max_masks:
        raise ValueError(f"capacity error: {len(masks)} masks exceeds max_masks={max_masks}")

    image_tokens = encode_global(image, params, grid)
    sets = tuple(
        mask2token(image, m, params, scale=scale, grid=grid, mask_index=i)
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
