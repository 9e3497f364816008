"""Deterministic toy vision encoder: linear patch projection to a token grid.

One ``EncoderParams`` instance is shared between the global image and every
mask crop, so identical pixel content maps to identical features no matter
which path produced it.  Weights are drawn from the package PRNG
(xoshiro256**, see prng.py) by ``prng.quantized_uniform``, like the decoder
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maskio import RasterImage
from .prng import Xoshiro256StarStar, quantized_uniform

GRID_SIDE = 16
PATCH_SIDE = 28


@dataclass(frozen=True)
class FeatureGrid:
    """rows x cols x dim feature tensor; values must be finite."""

    rows: int
    cols: int
    dim: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.rows, self.cols, self.dim):
            raise ValueError("values shape does not match rows x cols x dim")
        if not np.isfinite(values).all():
            raise ValueError("feature grid contains non-finite values")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def tokens(self) -> np.ndarray:
        """Row-major (rows*cols, dim) view of the grid."""
        return self.values.reshape(self.rows * self.cols, self.dim)


@dataclass(frozen=True)
class EncoderParams:
    """Linear patch-projection weights.

    ``projection`` has shape (patch_side**2 * channels, dim); a patch is
    flattened row-major with channels fastest, divided by 255, and matrix-
    multiplied.
    """

    patch_side: int
    dim: int
    channels: int
    projection: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"encoder dim must be >= 1, got {self.dim}")
        proj = np.asarray(self.projection, dtype=np.float64)
        fan_in = self.patch_side * self.patch_side * self.channels
        if proj.shape != (fan_in, self.dim):
            raise ValueError(f"projection shape {proj.shape} != {(fan_in, self.dim)}")
        proj = proj.copy()
        proj.flags.writeable = False
        object.__setattr__(self, "projection", proj)

    @classmethod
    def seeded(
        cls, seed: int, patch_side: int = PATCH_SIDE, dim: int = 16, channels: int = 1
    ) -> "EncoderParams":
        fan_in = patch_side * patch_side * channels
        proj = quantized_uniform(Xoshiro256StarStar(seed), fan_in, (fan_in, dim))
        return cls(patch_side=patch_side, dim=dim, channels=channels, projection=proj)


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
    if image.channels != params.channels:
        raise ValueError(f"shape error: image channels {image.channels} != {params.channels}")
    g = image.width // params.patch_side
    p = params.patch_side
    scaled = image.data / 255.0
    patches = (
        scaled.reshape(g, p, g, p, params.channels)
        .transpose(0, 2, 1, 3, 4)
        .reshape(g * g, p * p * params.channels)
    )
    values = patches @ params.projection
    return FeatureGrid(rows=g, cols=g, dim=params.dim, values=values.reshape(g, g, params.dim))
