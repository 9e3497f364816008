"""Label evaluation: semantic similarity, word-set IoU, open-vocabulary
matching, and corpus aggregation over a text-embedding provider.

The offline provider hashes character trigrams (FNV-1a 64-bit over the
UTF-8 bytes of the lowercased string, bucket = hash mod dim, +1 per
trigram) and L2-normalises.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_WORD_SPLIT = re.compile(r"[\s\-_]+")


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class TrigramHashProvider:
    """Deterministic character-trigram hashing embedder.

    Strings shorter than three bytes hash as a single chunk, so every
    non-empty string maps to a nonzero vector.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError(f"provider dim must be >= 1, got {dim}")
        self.name = f"trigram-fnv1a-{dim}"
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        data = text.lower().encode("utf-8")
        if not data:
            raise ValueError("input error: empty string")
        vec = np.zeros(self.dim)
        if len(data) < 3:
            vec[_fnv1a64(data) % self.dim] += 1.0
        else:
            for i in range(len(data) - 2):
                vec[_fnv1a64(data[i : i + 3]) % self.dim] += 1.0
        return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class EvalReport:
    """Corpus means on the 0..100 scale plus optional mask accuracy."""

    semantic_similarity: float
    semantic_iou: float
    mask_acc: float | None
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("report needs n >= 1")
        if not (0.0 <= self.semantic_similarity <= 100.0 and 0.0 <= self.semantic_iou <= 100.0):
            raise ValueError("scores must lie in [0, 100]")

    def to_json(self) -> str:
        return json.dumps(
            {
                "semantic_similarity": self.semantic_similarity,
                "semantic_iou": self.semantic_iou,
                "mask_acc": self.mask_acc,
                "n": self.n,
            },
            sort_keys=True,
        )


def _require_nonempty(label: str, side: str) -> str:
    if not label or not label.strip():
        raise ValueError(f"input error: empty {side} label")
    return label.strip()


def semantic_similarity(pred: str, gold: str, provider) -> float:
    """100 * max(0, cosine) between the two label embeddings."""
    pred = _require_nonempty(pred, "pred")
    gold = _require_nonempty(gold, "gold")
    cos = float(np.dot(provider.embed(pred), provider.embed(gold)))
    return 100.0 * max(0.0, cos)


def _word_set(label: str) -> set[str]:
    return {w for w in _WORD_SPLIT.split(label.lower()) if w}


def semantic_iou(pred: str, gold: str) -> float:
    """Word-set intersection over union, 0..100.

    Normalisation: lowercase, split on whitespace/hyphen/underscore,
    deduplicate.
    """
    p = _word_set(_require_nonempty(pred, "pred"))
    g = _word_set(_require_nonempty(gold, "gold"))
    if not p or not g:
        raise ValueError("input error: label empty after normalization")
    return 100.0 * len(p & g) / len(p | g)


def open_vocab_classify(pred: str, vocabulary: list[str], provider) -> tuple[str, float]:
    """Highest-cosine category for a predicted label; ties break to the
    lowest vocabulary index."""
    if not vocabulary:
        raise ValueError("input error: empty vocabulary")
    pred = _require_nonempty(pred, "pred")
    pv = provider.embed(pred)
    best_idx = 0
    best_cos = -np.inf
    for i, cat in enumerate(vocabulary):
        cos = float(np.dot(pv, provider.embed(cat)))
        if cos > best_cos:
            best_idx, best_cos = i, cos
    return vocabulary[best_idx], 100.0 * max(0.0, best_cos)


def evaluate(pairs, provider) -> EvalReport:
    """Mean metrics over (pred, gold) or (pred, gold, vocabulary) tuples.

    mask_acc is the fraction of vocabulary-carrying instances whose matched
    category equals the gold label; omitted (None) when nothing carries one.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("input error: no instances")
    sims, ious = [], []
    acc_hits = acc_total = 0
    for item in pairs:
        pred, gold = item[0], item[1]
        sims.append(semantic_similarity(pred, gold, provider))
        ious.append(semantic_iou(pred, gold))
        if len(item) > 2 and item[2]:
            category, _ = open_vocab_classify(pred, list(item[2]), provider)
            acc_total += 1
            acc_hits += int(category == gold)
    return EvalReport(
        semantic_similarity=float(np.mean(sims)),
        semantic_iou=float(np.mean(ious)),
        mask_acc=(acc_hits / acc_total) if acc_total else None,
        n=len(pairs),
    )


def read_predictions(path) -> list[tuple]:
    """JSON-lines {"image_id", "mask_index", "pred", "gold"} to eval pairs."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                out.append((obj["pred"], obj["gold"]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"prediction error at line {lineno}: {exc}") from None
    return out
