"""Image and mask data types with bit-exact file I/O.

File formats:

* PGM ``P5`` (binary) and ``P2`` (ASCII), maxval <= 255, read only.
* Uncompressed run-length JSON ``{"size": [h, w], "counts": [...]}`` in
  column-major order, first run counting false pixels, at most
  ``MAX_RLE_PIXELS`` pixels.
* Mask record collections as JSON lines, one object per line:
  ``{"image_id": ..., "label": ..., "rle": {...}}``.  ``read_json_lines``
  reads these and the prediction files of ``metrics``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

MAX_RLE_PIXELS = 1 << 26  # 8192 x 8192, above any LVIS or SA-1B image


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` frozen: it is copied first unless it and every array on its
    ``base`` chain are read-only, so no caller keeps a handle that writes
    into the result.  Producers flag their fresh arrays so that they are not
    copied."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray):  # a writable array can reach the data
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RasterImage:
    """Row-major single-plane intensity raster, values in [0, 255].

    ``data`` has shape (height, width) and dtype float64 so that resampled
    images keep sub-integer precision.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.size == 0:
            raise ValueError(f"image data must be a non-empty 2-D array, got shape {data.shape}")
        object.__setattr__(self, "data", _readonly(data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BinaryMask:
    """2-D boolean raster; empty masks are rejected at construction."""

    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"mask bits must be a 2-D array, got shape {bits.shape}")
        if not bits.any():
            raise ValueError("mask has no true bits")
        object.__setattr__(self, "bits", _readonly(bits))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def area(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))


@dataclass(frozen=True)
class MaskRecord:
    """A mask bound to its source image and optional category label."""

    mask: BinaryMask
    image_id: str
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.image_id, str) or not self.image_id:
            raise ValueError("image_id must be a non-empty string")
        if not isinstance(self.label, (str, type(None))):
            raise ValueError(f"label must be a string or null, got {type(self.label).__name__}")


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


# a comment runs from '#' to the next CR or LF; whitespace separates the
# tokens, and a bytes pattern's \s is exactly what bytes.isspace() accepts
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|[^\s#]+")


def read_pgm(path) -> RasterImage:
    """Read a P5 (binary) or P2 (ASCII) PGM file with maxval <= 255."""
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens = (m for m in _PGM_TOKEN.finditer(buf) if not m[0].startswith(b"#"))
    head = dict(zip(("magic", "width", "height", "maxval"), tokens))

    def token_value(what: str, m, parse=int):
        """Token ``m`` (None past the last one) through ``parse``."""
        if m is None:
            raise ValueError(f"pgm parse error: missing {what}")
        tok = m[0].decode("ascii", errors="replace")
        try:
            return parse(tok)
        except ValueError:
            raise ValueError(f"pgm parse error: bad {what} {tok!r}") from None

    binary = token_value("magic", head.get("magic"), ("P2", "P5").index)
    width, height, maxval = (token_value(what, head.get(what)) for what in ("width", "height", "maxval"))
    if width < 1 or height < 1:
        raise ValueError("pgm parse error: non-positive width/height")
    if not (0 < maxval <= 255):
        raise ValueError(f"pgm parse error: maxval {maxval} outside 1..255")

    npix = width * height
    if binary:
        # exactly one whitespace byte separates maxval from the payload
        off = head["maxval"].end() + 1
        if buf[off - 1 : off].strip():
            raise ValueError("pgm parse error: no whitespace after maxval")
        data = buf[off : off + npix]
        if len(data) != npix:
            raise ValueError(f"pgm length error: expected {npix} bytes, got {len(data)}")
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
    else:
        vals = [token_value("pixel value", m) for m in tokens]
        if len(vals) != npix:
            raise ValueError(f"pgm length error: expected {npix} values, got {len(vals)}")
        arr = np.asarray(vals, dtype=np.float64)
    if arr.min() < 0 or arr.max() > maxval:
        raise ValueError("pgm parse error: pixel value outside 0..maxval")

    arr.flags.writeable = False
    return RasterImage(arr.reshape(height, width))


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


def mask_from_rle(rle: dict) -> BinaryMask:
    """Decode parsed uncompressed RLE (column-major, leading false-run).

    ``size`` and ``counts`` must hold integers: no float, string or boolean.
    """
    try:
        size, counts = list(rle["size"]), list(rle["counts"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"rle parse error: {exc}") from None
    if len(size) != 2 or not all(type(v) is int for v in size + counts):
        raise ValueError("rle parse error: size must be two integers and counts a list of integers")
    h, w = size
    if not (h >= 1 and w >= 1 and h * w <= MAX_RLE_PIXELS):
        raise ValueError(f"rle size error: {h}x{w}, each side must be >= 1 and h*w <= {MAX_RLE_PIXELS}")
    if any(c < 0 for c in counts):
        raise ValueError("rle value error: negative count")
    total = sum(counts)
    if total != h * w:
        raise ValueError(f"rle length error: counts sum {total} != {h * w}")
    values = np.arange(len(counts)) % 2 == 1  # runs alternate false, true, ...
    flat = np.repeat(values, counts)
    flat.flags.writeable = False
    return BinaryMask(flat.reshape((h, w), order="F"))


def mask_to_rle(mask: BinaryMask) -> dict:
    """Encode to uncompressed RLE, ``{"size": [h, w], "counts": [...]}``
    (round-trips bit-exactly)."""
    flat = mask.bits.ravel(order="F")
    # run boundaries; leading false-run is emitted even when zero-length
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return {"size": [mask.height, mask.width], "counts": counts}


# ---------------------------------------------------------------------------
# Record collections (JSON lines)
# ---------------------------------------------------------------------------


def record_to_json(record: MaskRecord) -> str:
    return json.dumps(
        {
            "image_id": record.image_id,
            "label": record.label,
            "rle": mask_to_rle(record.mask),
        }
    )


def write_records(records, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for record in records:
            fh.write(record_to_json(record) + "\n")


def read_json_lines(path, parse, what: str) -> list:
    """``parse`` applied to the JSON object on each non-blank line of a file.

    Any error, a line that is not a JSON object included, becomes one
    ``ValueError`` that names ``what`` and the line number.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                out.append(parse(obj))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{what} error at line {lineno}: {exc}") from None
    return out


def read_records(path) -> list[MaskRecord]:
    return read_json_lines(
        path,
        lambda obj: MaskRecord(mask=mask_from_rle(obj["rle"]), image_id=obj["image_id"], label=obj.get("label")),
        "record",
    )
