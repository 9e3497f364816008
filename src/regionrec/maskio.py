"""Image and mask data types with bit-exact file I/O.

File formats:

* PGM ``P5`` (binary) and ``P2`` (ASCII), maxval <= 255, read only.
* Uncompressed run-length JSON ``{"size": [h, w], "counts": [...]}`` in
  column-major order, first run counting false pixels, at most
  ``MAX_RLE_PIXELS`` pixels.
* Mask record collections as JSON lines, one object per line:
  ``{"image_id": ..., "label": ..., "rle": {...}}``.  ``read_json_lines``
  reads these and the prediction files of ``metrics``.

The one mask type, ``RunLengthMask``, holds a mask's canonical runs from the
file (or, for a raster, from ``RunLengthMask.from_bits``) through Mask2Token:
geometry reads the runs, and ``bits`` decodes a raster for test oracles only.
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


@dataclass(frozen=True, eq=False)
class RunLengthMask:
    """A mask held as its column-major runs, the first one false, in a
    read-only int64 ``counts``.

    Construction checks the size, the counts and that some pixel is true,
    and makes the runs canonical: zero-length runs after the first are
    merged away, so equal masks have equal ``counts``.  Each read of
    ``bits`` decodes a new raster."""

    height: int
    width: int
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        h, w = self.height, self.width
        if not (h >= 1 and w >= 1 and h * w <= MAX_RLE_PIXELS):
            raise ValueError(f"rle size error: {h}x{w}, each side must be >= 1 and h*w <= {MAX_RLE_PIXELS}")
        # checked as Python ints: numpy reads counts past int64 as float or
        # uint64, and an int64 or uint64 sum of large counts can wrap to h*w
        counts = self.counts.tolist() if isinstance(self.counts, np.ndarray) else list(self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("rle value error: negative count")
        total = sum(counts)
        if total != h * w:
            raise ValueError(f"rle length error: counts sum {total} != {h * w}")
        runs = np.array(counts, dtype=np.int64)  # each count is at most h*w, so it fits
        if not runs[1::2].any():
            raise ValueError("mask has no true bits")
        if not runs[1:].all():  # drop the zero-length runs after the first and merge equal neighbours
            true = np.arange(len(runs)) % 2 == 1
            runs, true = runs[runs > 0], true[runs > 0]
            runs = np.add.reduceat(runs, np.flatnonzero(np.diff(true, prepend=~true[0])))
            if true[0]:
                runs = np.concatenate(([0], runs))
        runs.flags.writeable = False
        object.__setattr__(self, "counts", runs)

    @classmethod
    def from_bits(cls, bits) -> RunLengthMask:
        """The runs of a 2-D boolean raster, read in column-major order."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"mask bits must be a 2-D array, got shape {bits.shape}")
        flat = bits.ravel(order="F")
        counts = np.diff(np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1, [flat.size])))
        if flat[:1].any():  # the first run counts false pixels, here none
            counts = np.concatenate(([0], counts))
        return cls(*bits.shape, counts)

    @property
    def bits(self) -> np.ndarray:
        flat = np.repeat(np.arange(len(self.counts)) % 2 == 1, self.counts)  # runs alternate false, true, ...
        flat.flags.writeable = False
        return flat.reshape((self.height, self.width), order="F")

    def area(self) -> int:
        return int(self.counts[1::2].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunLengthMask):
            return NotImplemented
        same_size = (self.height, self.width) == (other.height, other.width)
        return same_size and bool(np.array_equal(self.counts, other.counts))


@dataclass(frozen=True)
class MaskRecord:
    """A mask bound to its source image and optional category label."""

    mask: RunLengthMask
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


def mask_from_rle(rle: dict) -> RunLengthMask:
    """Parsed uncompressed RLE (column-major, leading false-run) as its
    checked, canonical runs.

    ``size`` and ``counts`` must hold integers: no float, string or boolean.
    """
    try:
        size, counts = list(rle["size"]), list(rle["counts"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"rle parse error: {exc}") from None
    if len(size) != 2 or not all(type(v) is int for v in size + counts):
        raise ValueError("rle parse error: size must be two integers and counts a list of integers")
    return RunLengthMask(*size, counts)


def mask_to_rle(mask: RunLengthMask) -> dict:
    """Encode to uncompressed RLE, ``{"size": [h, w], "counts": [...]}``:
    the canonical runs, so it round-trips through ``mask_from_rle``."""
    return {"size": [mask.height, mask.width], "counts": mask.counts.tolist()}


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
