"""Label evaluation: semantic similarity, word-set IoU and open-vocabulary
mask accuracy, averaged over a corpus by ``evaluate``.

The offline provider hashes character trigrams (FNV-1a 64-bit over the
UTF-8 bytes of the lowercased string, bucket = hash mod dim, +1 per
trigram) and L2-normalises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .maskio import read_json_lines

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


def _word_set(label: str) -> set[str]:
    return {w for w in _WORD_SPLIT.split(label.lower()) if w}


def _checked_label(label: str, side: str) -> str:
    """``label`` stripped, or an input error if it is blank or keeps no
    word after ``semantic_iou``'s normalization."""
    if not label.strip():
        raise ValueError(f"input error: empty {side} label")
    if not _word_set(label):
        raise ValueError(f"input error: {side} label empty after normalization")
    return label.strip()


def semantic_iou(pred: str, gold: str) -> float:
    """Word-set intersection over union, 0..100.

    Normalisation: lowercase, split on whitespace/hyphen/underscore,
    deduplicate.  A label with no word left is an input error.
    """
    p, g = _word_set(pred), _word_set(gold)
    if not p or not g:
        raise ValueError("input error: label empty after normalization")
    return 100.0 * len(p & g) / len(p | g)


def evaluate(pairs, provider, vocabulary=()) -> EvalReport:
    """Mean metrics over (pred, gold) label pairs against an optional
    vocabulary, a sequence of category names.

    Each label is checked, stripped and embedded once.  The similarity is
    100 * max(0, cosine) of the two embeddings.  With a vocabulary, each
    entry is embedded once, a prediction matches the entry of highest
    cosine (ties go to the lowest index), and mask_acc is the fraction of
    pairs whose matched entry equals the gold label, both stripped and
    lowercased; without one, mask_acc is None.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("input error: no instances")
    sims, ious, embedded = [], [], []
    for pred, gold in pairs:
        pred, gold = _checked_label(pred, "pred"), _checked_label(gold, "gold")
        pv = provider.embed(pred)
        sims.append(100.0 * max(0.0, float(np.dot(pv, provider.embed(gold)))))
        ious.append(semantic_iou(pred, gold))
        embedded.append((pv, gold.lower()))
    mask_acc = None
    if vocabulary:
        entries = [provider.embed(cat) for cat in vocabulary]
        hits = sum(
            vocabulary[int(np.argmax([np.dot(pv, ev) for ev in entries]))].strip().lower() == gold
            for pv, gold in embedded
        )
        mask_acc = hits / len(pairs)
    return EvalReport(
        semantic_similarity=float(np.mean(sims)),
        semantic_iou=float(np.mean(ious)),
        mask_acc=mask_acc,
        n=len(pairs),
    )


def _prediction(obj: dict) -> tuple[str, str]:
    pred, gold = obj["pred"], obj["gold"]
    if not isinstance(pred, str) or not isinstance(gold, str):
        raise TypeError("pred and gold must be strings")
    _checked_label(pred, "pred")
    _checked_label(gold, "gold")
    return pred, gold


def read_predictions(path) -> list[tuple]:
    """JSON-lines {"image_id", "mask_index", "pred", "gold"} to eval pairs."""
    return read_json_lines(path, _prediction, "prediction")
