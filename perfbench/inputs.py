"""Seeded input generator for the benchmark workloads.

Everything the program sees is written here as files: 480x640 PGM images,
one JSON-lines RLE record file per image (the record ``label`` is the gold
label), the scripted-oracle answers for the filter pipeline, and a manifest.
The same (workload, seed) always gives byte-identical files.  Nothing here
imports ``regionrec``: the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HEIGHT, WIDTH = 480, 640

# Gold categories, all drawn from words w0..w59 so that both the CLI decode
# vocabulary and the bench decoder vocabulary can encode them.  The first two
# carry most of the mass so that they pass the filter's head threshold (100
# samples) and stage 2 queries the oracle about them.
CATEGORIES = (
    "w3", "w7 w12", "w21", "w5 w40 w2", "w33", "w8 w9",
    "w14", "w50 w51", "w27", "w44 w1", "w18 w58 w30", "w36",
)
_CATEGORY_WEIGHTS = np.array([30, 26, 8, 7, 6, 5, 4, 4, 3, 3, 2, 2], dtype=np.float64)
_HEAD = (0, 1)

# Objects per image, as a multiset that each pass over the images holds
# exactly once (in seeded order).  Stratifying keeps the latency mix the same
# for every seed, so seeds vary shapes and placement, not the amount of work.
#   tokenize: 40 images spread evenly over 1..30 masks.
#   label:    24 images covering every K in 1..8, weighted toward few objects
#             (decode time grows roughly with K^2; this keeps a pass ~20 s).
#   score:    16 images at the per-sample cap of 30 objects.
OBJECT_COUNTS = {
    "tokenize": tuple(1 + (29 * i) // 39 for i in range(40)),
    "label": (1,) * 10 + (2,) * 5 + (3,) * 3 + (4,) * 2 + (5, 6, 7, 8),
    "score": (30,) * 16,
}
WORKLOADS = tuple(OBJECT_COUNTS)

# Shape of mask j in every image: SHAPES[j % len(SHAPES)] as (kind, aspect).
# Mask2Token picks the grid cells the mask covers inside a window scaled to
# its bounding box, so the token count depends on shape and aspect, not size;
# fixing the shape sequence keeps sequence lengths alike across seeds while
# size, position, orientation (along x or y) and labels vary.
SHAPES = (("rect", 1.0), ("ellipse", 0.7), ("rect", 0.5), ("ellipse", 1.0), ("rect", 0.75), ("ellipse", 0.45))
TINY_EVERY = 12  # tokenize: every 12th mask lies below the 0.1% area ratio (stage 1 drops it)
# tokenize: the oracle answers "no" (stage 2 drops) or fails (stage 2 flags)
# only for a head label that one mask of the image carries, so an answer
# removes at most one mask and per-image work stays alike across seeds
ORACLE_NO, ORACLE_ERROR = 0.5, 0.3


def _shape(rng: np.random.Generator, j: int, tiny: bool):
    """(kind, cx, cy, half_width, half_height) of mask j, inside the image."""
    kind, aspect = SHAPES[j % len(SHAPES)]
    a = rng.uniform(2.0, 8.0) if tiny else rng.uniform(24.0, 90.0)
    b = a * aspect * rng.uniform(0.95, 1.05)
    if rng.random() < 0.5:  # lying along y rather than x
        a, b = b, a
    r = max(a, b) + 3.0  # room for the rasterizer's window
    return kind, rng.uniform(r, WIDTH - r), rng.uniform(r, HEIGHT - r), a, b


def _rasterize(kind, cx, cy, a, b) -> np.ndarray:
    r = int(np.ceil(max(a, b))) + 1
    x0, x1 = int(cx) - r, int(cx) + r + 1
    y0, y1 = int(cy) - r, int(cy) + r + 1
    gy, gx = np.mgrid[y0:y1, x0:x1]
    dx, dy = gx + 0.5 - cx, gy + 0.5 - cy
    if kind == "ellipse":
        inside = (dx / a) ** 2 + (dy / b) ** 2 <= 1.0
    else:
        inside = (np.abs(dx) <= a) & (np.abs(dy) <= b)
    inside[int(cy) - y0, int(cx) - x0] = True  # never empty, however small
    bits = np.zeros((HEIGHT, WIDTH), dtype=bool)
    bits[y0:y1, x0:x1] = inside
    return bits


def _rle(bits: np.ndarray) -> dict:
    """Uncompressed column-major RLE whose first run counts false pixels."""
    flat = bits.ravel(order="F")
    bounds = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return {"size": [HEIGHT, WIDTH], "counts": counts}


def _background(rng: np.random.Generator) -> np.ndarray:
    gy, gx = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    p = rng.uniform(0.0, 2.0 * np.pi, 2)
    f = rng.uniform(15.0, 60.0, 2)
    base = 110.0 + 45.0 * np.sin(gx / f[0] + p[0]) + 35.0 * np.cos(gy / f[1] + p[1])
    return base + rng.uniform(-12.0, 12.0, (HEIGHT, WIDTH))


def generate(workload: str, seed: int, out_dir) -> Path:
    """Write the inputs of one workload and return the manifest path."""
    if workload not in OBJECT_COUNTS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    counts = rng.permutation(np.array(OBJECT_COUNTS[workload]))
    weights = _CATEGORY_WEIGHTS / _CATEGORY_WEIGHTS.sum()
    tokenize = workload == "tokenize"

    images, answers = [], []
    for i, k in enumerate(counts.tolist()):
        image_id = f"img{i:03d}"
        pixels = _background(rng)
        lines = []
        labels = []
        for j in range(k):
            tiny = tokenize and j % TINY_EVERY == TINY_EVERY - 1
            bits = _rasterize(*_shape(rng, j, tiny))
            if j == 0:
                # never queried by stage 2 and never tiny, so every image
                # keeps at least one mask after filtering
                label = CATEGORIES[int(rng.choice(np.arange(2, len(CATEGORIES))))]
            else:
                label = CATEGORIES[int(rng.choice(len(CATEGORIES), p=weights))]
            labels.append(label)
            shade = rng.uniform(0.0, 255.0)
            pixels[bits] = 0.5 * pixels[bits] + 0.5 * shade
            lines.append(json.dumps({"image_id": image_id, "label": label, "rle": _rle(bits)}))
        if tokenize:
            for c in _HEAD:
                if labels[1:].count(CATEGORIES[c]) == 1 and CATEGORIES[c] != labels[0]:
                    u = rng.random()
                    if u < ORACLE_NO + ORACLE_ERROR:
                        answer = "no" if u < ORACLE_NO else "error"
                        answers.append({"image_id": image_id, "label": CATEGORIES[c], "answer": answer})
        gray = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
        pgm = out / f"{image_id}.pgm"
        pgm.write_bytes(f"P5\n{WIDTH} {HEIGHT}\n255\n".encode("ascii") + gray.tobytes())
        rec = out / f"{image_id}.jsonl"
        rec.write_text("\n".join(lines) + "\n", encoding="ascii")
        images.append({"image_id": image_id, "pgm": pgm.name, "records": rec.name, "objects": k})

    (out / "oracle.json").write_text(json.dumps(answers, sort_keys=True) + "\n", encoding="ascii")
    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps({"workload": workload, "seed": seed, "images": images, "oracle": "oracle.json"},
                   sort_keys=True) + "\n",
        encoding="ascii",
    )
    return manifest
