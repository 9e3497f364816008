"""The instance-scaling benchmark and the two-stage dataset filter pipeline.

FLOPs are counted analytically from the weights' sizes (2*m*n*k per matmul;
the attention interaction term is 4 * visible-pairs * dim, 2 * visible-pairs
* dim each for Q.K^T and the weighted sum of V, block-sparse aware) so the
scaling property is checkable independent of hardware.  Wall time is
reported for context but never asserted.  The simulated single-mask
comparator re-encodes and re-decodes per instance, i.e. exactly K times the
K=1 cost.

The filter drops masks below an area ratio of their raster, then asks an
oracle to confirm each record of a head category.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .attnmask import CascadeConfig, build_cascade_mask
from .decoder import START, DecoderParams, forward, make_vocab, prompt_sequence
from .encoder import GRID_SIDE, EncoderParams
from .maskio import MaskRecord, RasterImage, RunLengthMask
from .prng import Xoshiro256StarStar
from .prompt import OUTPUT_SLOTS, build_prompt_batch

RESIZE_FLOPS_PER_PIXEL = 8  # 4 weights, 3 lerp multiplies, accumulate
HEAD_THRESHOLD = 100
MIN_AREA_RATIO = 0.001

QUESTION_TEMPLATE = (
    "Is the area outlined by the red contour and covered by the red mask "
    "in the image {class_name}? Please answer yes or no."
)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def encoder_flops(k: int, enc: EncoderParams) -> int:
    """K crop encodes plus one global encode, each a resize to the encoder
    input and a patch projection onto the ``GRID_SIDE`` grid.  The resize
    term is a full crop's, an upper bound; the projection count is exact."""
    side = enc.patch_side * GRID_SIDE
    resize = RESIZE_FLOPS_PER_PIXEL * side * side
    projection = 2 * GRID_SIDE * GRID_SIDE * enc.projection.size
    return (k + 1) * (resize + projection)


def decoder_flops(n: int, visible_pairs: int, injected: int, dec: DecoderParams) -> int:
    """One decoder forward over n rows with ``visible_pairs`` visible pairs
    and ``injected`` feature rows through the adapter."""
    d = dec.dim
    per_layer = 4 * 2 * n * d * d  # q, k, v, o projections
    per_layer += 4 * visible_pairs * d  # Q.K^T and A.V over visible pairs
    per_layer += 2 * 2 * n * d * 4 * d  # mlp up + down
    total = dec.layers * per_layer
    total += 2 * n * d * len(dec.vocab)  # output head
    total += 2 * injected * dec.enc_dim * d  # feature adapter
    return total


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------

BENCH_TEXT_LEN = 128
BENCH_DEC_DIM = 256
BENCH_DEC_LAYERS = 4
BENCH_DEC_HEADS = 4
BENCH_TOKENS_PER_MASK = 27
BENCH_DEC_MAX_LEN = 4096  # also the longest layout maskviz renders


def bench_decoder_params(seed: int, enc_dim: int = 16) -> DecoderParams:
    """Decoder defaults for the benchmark: a deliberately decoder-heavy
    configuration mirroring a language model that dwarfs its vision tower."""
    vocab = make_vocab([f"w{i}" for i in range(124)])
    return DecoderParams.seeded(
        seed,
        vocab,
        dim=BENCH_DEC_DIM,
        heads=BENCH_DEC_HEADS,
        layers=BENCH_DEC_LAYERS,
        enc_dim=enc_dim,
        max_len=BENCH_DEC_MAX_LEN,
    )


def synthesize_mask_corpus(n_masks: int, seed: int = 0) -> tuple[RasterImage, list[RunLengthMask]]:
    """Deterministic 64x64 image plus masks that each select exactly
    ``BENCH_TOKENS_PER_MASK`` grid cells under the default context scale of 2.

    Construction: each mask's bbox is pinned to the full square, so its
    scale-2 crop window is fixed; the mask then lights one pixel inside each
    of ``BENCH_TOKENS_PER_MASK`` distinct window cells (all inside the central 8x8
    block the square occupies).
    """
    side = 64
    rng = Xoshiro256StarStar(seed)
    gy, gx = np.mgrid[0:side, 0:side]
    image = RasterImage(((gx * 3 + gy * 5) % 256).astype(np.float64))

    masks = []
    central = [(r, c) for r in range(4, 12) for c in range(4, 12)]
    for _ in range(n_masks):
        bits = np.zeros((side, side), dtype=bool)
        # corner pixels pin the bbox to the full square: window cells (4,4)/(11,11)
        bits[0, 0] = True
        bits[side - 1, side - 1] = True
        chosen = {(4, 4), (11, 11)}
        pool = [cell for cell in central if cell not in chosen]
        while len(chosen) < BENCH_TOKENS_PER_MASK:
            cell = pool.pop(rng.integers(len(pool)))
            chosen.add(cell)
            r, c = cell
            # window cell (r, c) spans [8c-32, 8c-24) x [8r-32, 8r-24) in pixels
            bits[8 * r - 28, 8 * c - 28] = True
        masks.append(RunLengthMask.from_bits(bits))
    return image, masks


def check_k_values(k_values: list[int]) -> None:
    """Reject an empty, non-positive or descending list of instance counts."""
    if not k_values or min(k_values) < 1 or any(b < a for a, b in zip(k_values, k_values[1:])):
        raise ValueError(f"input error: k_values must be positive and non-decreasing, got {k_values}")


def run_scaling_bench(
    k_values: list[int],
    image: RasterImage,
    masks: list[RunLengthMask],
    enc_params: EncoderParams,
    dec_params: DecoderParams,
    text_len: int = BENCH_TEXT_LEN,
    repeats: int = 5,
) -> dict:
    """Build real prompt batches, time the forward pass, and evaluate the
    FLOP model per instance count, under the full cascade.

    Returns the JSON-ready report: one row per K (``k``, ``total_flops``,
    ``encoder_share``, ``decoder_share``, ``comparator_flops`` and
    ``wall_time_ms``), ``growth_factor`` and ``comparator_growth_factor``.
    Wall time covers prompt construction plus one decoder forward over the
    fully materialised layout; the median of ``repeats`` runs is reported.
    ``repeats=0`` runs no timed pass and leaves ``wall_time_ms`` out.
    FLOP numbers come from the analytic model.  A layout longer than the
    decoder's ``max_len`` is rejected, timed or not.
    """
    check_k_values(k_values)
    if max(k_values) > len(masks):
        raise ValueError(f"input error: need {max(k_values)} masks, corpus has {len(masks)}")
    if repeats < 0:
        raise ValueError(f"input error: repeats must be >= 0, got {repeats}")
    if text_len < 0:  # the text ids below would silently be none
        raise ValueError(f"text length must be >= 0, got {text_len}")
    dec_params.check_length(text_len)  # before text_len ids are built
    text_ids = [dec_params.token_id(START)] * text_len
    config = CascadeConfig.full_cascade()

    def prompt(k: int):
        return prompt_sequence(build_prompt_batch(image, masks[:k], enc_params), text_ids, dec_params, OUTPUT_SLOTS)

    def one_pass(k: int):
        """Cascade mask of the first k masks' prompt, and the (encoder,
        decoder) FLOPs of one pass over it."""
        seq = prompt(k)
        attn = build_cascade_mask(seq.layout, config)
        dec_flops = decoder_flops(seq.n, attn.visible_pairs(), int((seq.ids < 0).sum()), dec_params)
        return attn, (encoder_flops(k, enc_params), dec_flops)

    k1_total = sum(one_pass(1)[1])  # the one-mask-per-pass comparator costs K times this
    rows = []
    for k in k_values:
        attn, (enc_flops, dec_flops) = one_pass(k)
        total = enc_flops + dec_flops
        row = {"k": k, "total_flops": total, "encoder_share": enc_flops / total, "decoder_share": dec_flops / total,
               "comparator_flops": k * k1_total}
        if repeats:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                forward(prompt(k), attn, dec_params)
                times.append((time.perf_counter() - t0) * 1000.0)
            row["wall_time_ms"] = statistics.median(times)
        rows.append(row)
    totals = [row["total_flops"] for row in rows]
    if any(b < a for a, b in zip(totals, totals[1:])):
        raise ValueError("total_flops must be monotone non-decreasing in K")
    return {
        "rows": rows,
        "growth_factor": totals[-1] / totals[0],
        "comparator_growth_factor": rows[-1]["comparator_flops"] / rows[0]["comparator_flops"],
    }


# ---------------------------------------------------------------------------
# Filter pipeline
# ---------------------------------------------------------------------------


class ScriptedOracle:
    """Mock oracle answering from an (image_id, label) -> answer table.

    Missing entries answer "yes", so ``ScriptedOracle({})`` confirms every
    record; an answer of "error" raises, exercising
    the flagged-record path.
    """

    def __init__(self, answers: dict[tuple[str, str], str]):
        self.answers = dict(answers)

    def ask(self, question: str, record: MaskRecord) -> str:
        answer = self.answers.get((record.image_id, record.label or ""), "yes")
        if answer == "error":
            raise RuntimeError(f"scripted oracle failure for {record.image_id}")
        return answer


@dataclass(frozen=True)
class PipelineReport:
    input_count: int
    stage1_kept: int
    head_categories: tuple[str, ...]
    stage2_queried: int
    stage2_dropped: int
    kept_records: tuple[MaskRecord, ...] = field(repr=False)
    flagged_records: tuple[MaskRecord, ...] = field(repr=False)

    @property
    def stage1_dropped(self) -> int:
        return self.input_count - self.stage1_kept

    @property
    def flagged(self) -> int:
        return len(self.flagged_records)

    @property
    def final_kept(self) -> int:
        return len(self.kept_records)

    def summary(self) -> dict:
        return {
            "input_count": self.input_count,
            "stage1_kept": self.stage1_kept,
            "stage1_dropped": self.stage1_dropped,
            "head_categories": sorted(self.head_categories),
            "stage2_queried": self.stage2_queried,
            "stage2_dropped": self.stage2_dropped,
            "flagged": self.flagged,
            "final_kept": self.final_kept,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def run_filter_pipeline(
    records: list[MaskRecord],
    oracle,
    min_ratio: float = MIN_AREA_RATIO,
    head_threshold: int = HEAD_THRESHOLD,
) -> PipelineReport:
    """Stage 1: drop masks whose area is below ``min_ratio`` of their raster,
    keeping input order.  Stage 2: for categories with at least
    ``head_threshold`` surviving samples, re-query the oracle with the
    confirmation question and drop "no" answers.

    Oracle failures or unparseable answers flag the record and keep it;
    nothing is ever silently dropped.  Records of one ``image_id`` must
    share a raster size.
    """
    if not 0.0 <= min_ratio <= 1.0:
        raise ValueError("min_ratio must be within [0, 1]")
    sizes: dict[str, tuple[int, int]] = {}
    kept = []
    for record in records:
        mask = record.mask
        if sizes.setdefault(record.image_id, (mask.width, mask.height)) != (mask.width, mask.height):
            raise ValueError(f"inconsistent raster size for image_id {record.image_id!r}")
        if mask.area() / (mask.width * mask.height) >= min_ratio:
            kept.append(record)

    counts: dict[str, int] = {}
    for record in kept:
        if record.label:
            counts[record.label] = counts.get(record.label, 0) + 1
    head = {label for label, c in counts.items() if c >= head_threshold}

    final, flagged = [], []
    queried = stage2_dropped = 0
    for record in kept:
        if record.label not in head:
            final.append(record)
            continue
        queried += 1
        question = QUESTION_TEMPLATE.format(class_name=record.label)
        try:
            answer = oracle.ask(question, record).strip().lower()
        except Exception:
            flagged.append(record)
            final.append(record)
            continue
        if answer.startswith("yes"):
            final.append(record)
        elif answer.startswith("no"):
            stage2_dropped += 1
        else:
            flagged.append(record)
            final.append(record)

    return PipelineReport(
        input_count=len(records),
        stage1_kept=len(kept),
        head_categories=tuple(sorted(head)),
        stage2_queried=queried,
        stage2_dropped=stage2_dropped,
        kept_records=tuple(final),
        flagged_records=tuple(flagged),
    )
