"""Deterministic toy vision encoder: linear patch projection to a token grid.

One ``EncoderParams`` instance is shared between the global image and every
mask crop, so identical pixel content maps to identical features no matter
which path produced it.  Weights are drawn from the package PRNG
(xoshiro256**, see prng.py) by ``prng.quantized_uniform``, like the decoder
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .maskio import RasterImage, _readonly
from .prng import Xoshiro256StarStar, quantized_uniform

GRID_SIDE = 16
PATCH_SIDE = 28


@dataclass(frozen=True)
class FeatureGrid:
    """rows x cols x dim feature tensor; values must be finite."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.size == 0:
            raise ValueError(f"feature values must be a non-empty 3-D array, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("feature grid contains non-finite values")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def tokens(self) -> np.ndarray:
        """Row-major (rows*cols, dim) view of the grid."""
        return self.values.reshape(self.rows * self.cols, self.dim)


@dataclass(frozen=True)
class EncoderParams:
    """Linear patch-projection weights.

    ``projection`` has shape (patch_side**2, dim); a patch of the image plane
    is flattened row-major, divided by 255, and matrix-multiplied.
    """

    patch_side: int
    projection: np.ndarray = field(repr=False)
    channels: ClassVar[int] = 1  # images are single planes

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.float64)
        fan_in = self.patch_side * self.patch_side
        if proj.ndim != 2 or proj.shape[0] != fan_in:
            raise ValueError(f"projection shape {proj.shape} is not ({fan_in}, dim)")
        if proj.shape[1] < 1:
            raise ValueError(f"encoder dim must be >= 1, got {proj.shape[1]}")
        object.__setattr__(self, "projection", _readonly(proj))

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    @classmethod
    def seeded(cls, seed: int, patch_side: int = PATCH_SIDE, dim: int = 16) -> "EncoderParams":
        fan_in = patch_side * patch_side
        proj = quantized_uniform(Xoshiro256StarStar(seed), fan_in, (fan_in, dim))
        return cls(patch_side=patch_side, projection=proj)


def encode(image: RasterImage, params: EncoderParams) -> FeatureGrid:
    """Project each patch of a square image onto the feature grid.

    Deterministic: same params and pixels give bit-identical grids.
    """
    if image.width != image.height:
        raise ValueError(f"shape error: encoder input must be square, got {image.width}x{image.height}")
    if image.width % params.patch_side != 0:
        raise ValueError(
            f"shape error: side {image.width} not divisible by patch {params.patch_side}"
        )
    g = image.width // params.patch_side
    p = params.patch_side
    scaled = image.data / 255.0
    patches = scaled.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)
    values = patches @ params.projection
    return FeatureGrid(values.reshape(g, g, params.dim))
