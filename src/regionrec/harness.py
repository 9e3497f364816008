"""Analytic FLOP model, the instance-scaling benchmark, and the two-stage
dataset filter pipeline.

FLOPs are counted analytically (2*m*n*k per matmul; the attention
interaction term is 4 * visible-pairs * dim, 2 * visible-pairs * dim each
for Q.K^T and the weighted sum of V, block-sparse aware) so the scaling
property is checkable independent of hardware.  Wall time is
reported for context but never asserted.  The simulated single-mask
comparator re-encodes and re-decodes per instance, i.e. exactly K times the
K=1 cost.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .attnmask import IMAGE, MASK, AttentionMaskMatrix, CascadeConfig, SequenceLayout, build_cascade_mask, canonical_layout
from .decoder import START, DecoderParams, assemble_sequence, forward, make_vocab
from .encoder import EncoderParams
from .maskio import BinaryMask, MaskRecord, RasterImage, area_ratio_filter
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


@dataclass(frozen=True)
class CostModel:
    """Analytic per-component FLOP counts for the toy pipeline."""

    patch_side: int
    enc_dim: int
    channels: int
    grid_side: int
    dec_dim: int
    dec_layers: int
    vocab_size: int

    @property
    def input_side(self) -> int:
        return self.patch_side * self.grid_side

    def crop_resize_flops(self) -> int:
        return RESIZE_FLOPS_PER_PIXEL * self.input_side * self.input_side * self.channels

    def encoder_flops_per_crop(self) -> int:
        fan_in = self.patch_side * self.patch_side * self.channels
        patches = self.grid_side * self.grid_side
        return 2 * patches * fan_in * self.enc_dim

    def decoder_flops(self, n: int, visible_pairs: int, injected: int) -> int:
        d = self.dec_dim
        per_layer = 4 * 2 * n * d * d  # q, k, v, o projections
        per_layer += 4 * visible_pairs * d  # Q.K^T and A.V over visible pairs
        per_layer += 2 * 2 * n * d * 4 * d  # mlp up + down
        total = self.dec_layers * per_layer
        total += 2 * n * d * self.vocab_size  # output head
        total += 2 * injected * self.enc_dim * d  # feature adapter
        return total

    @classmethod
    def from_params(cls, enc: EncoderParams, dec: DecoderParams, grid_side: int = 16) -> "CostModel":
        return cls(
            patch_side=enc.patch_side,
            enc_dim=enc.dim,
            channels=enc.channels,
            grid_side=grid_side,
            dec_dim=dec.dim,
            dec_layers=dec.layers,
            vocab_size=len(dec.vocab),
        )


@dataclass(frozen=True)
class CostBreakdown:
    encoder_flops: int
    decoder_flops: int

    @property
    def total(self) -> int:
        return self.encoder_flops + self.decoder_flops


def estimate_cost(
    layout: SequenceLayout,
    mask: AttentionMaskMatrix,
    k: int,
    model: CostModel,
) -> CostBreakdown:
    """Total model FLOPs: K crop encodes plus one global encode, and a single
    decoder pass over the multi-instance sequence."""
    per_crop = model.crop_resize_flops() + model.encoder_flops_per_crop()
    encoder = (k + 1) * per_crop  # K crops + the global image
    injected = sum(seg.length for seg in layout.segments if seg.kind in (IMAGE, MASK))
    decoder = model.decoder_flops(layout.n, mask.visible_pairs(), injected)
    return CostBreakdown(encoder_flops=encoder, decoder_flops=decoder)


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------

BENCH_TEXT_LEN = 128
BENCH_DEC_DIM = 256
BENCH_DEC_LAYERS = 4
BENCH_DEC_HEADS = 4
BENCH_TOKENS_PER_MASK = 27


def bench_decoder_params(seed: int = 7, enc_dim: int = 16) -> DecoderParams:
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
        positional_mode="absolute",
        max_len=4096,
    )


def synthesize_mask_corpus(n_masks: int, seed: int = 0) -> tuple[RasterImage, list[BinaryMask]]:
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
    image = RasterImage.from_array(((gx * 3 + gy * 5) % 256).astype(np.float64))

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
        masks.append(BinaryMask.from_array(bits))
    return image, masks


@dataclass(frozen=True)
class ScalingRow:
    k: int
    total_flops: int
    encoder_share: float
    decoder_share: float
    wall_time_ms: float | None  # None when no timed pass ran
    comparator_flops: int


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple[ScalingRow, ...]
    growth_factor: float
    comparator_growth_factor: float

    def __post_init__(self):
        totals = [r.total_flops for r in self.rows]
        if any(b < a for a, b in zip(totals, totals[1:])):
            raise ValueError("total_flops must be monotone non-decreasing in K")

    def to_json(self) -> str:
        timed = all(r.wall_time_ms is not None for r in self.rows)
        rows = []
        for r in self.rows:
            row = {
                "k": r.k,
                "total_flops": r.total_flops,
                "encoder_share": r.encoder_share,
                "decoder_share": r.decoder_share,
                "comparator_flops": r.comparator_flops,
            }
            if timed:
                row["wall_time_ms"] = r.wall_time_ms
            rows.append(row)
        return json.dumps(
            {
                "rows": rows,
                "growth_factor": self.growth_factor,
                "comparator_growth_factor": self.comparator_growth_factor,
            },
            sort_keys=True,
        )

    def to_csv(self) -> str:
        timed = all(r.wall_time_ms is not None for r in self.rows)
        header = "k,total_flops,encoder_share,decoder_share,comparator_flops"
        if timed:
            header += ",wall_time_ms"
        lines = [header]
        for r in self.rows:
            line = f"{r.k},{r.total_flops},{r.encoder_share:.6f},{r.decoder_share:.6f},{r.comparator_flops}"
            if timed:
                line += f",{r.wall_time_ms:.3f}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def run_scaling_bench(
    k_values: list[int],
    image: RasterImage,
    masks: list[BinaryMask],
    enc_params: EncoderParams,
    dec_params: DecoderParams,
    text_len: int = BENCH_TEXT_LEN,
    repeats: int = 5,
) -> ScalingReport:
    """Build real prompt batches, time the forward pass, and evaluate the
    FLOP model per instance count, under the full cascade.

    Wall time covers prompt construction plus one decoder forward over the
    fully materialised layout; the median of ``repeats`` runs is reported.
    ``repeats=0`` runs no timed pass and leaves ``wall_time_ms`` None.
    FLOP numbers come from the analytic model.
    """
    if not k_values:
        raise ValueError("input error: k_values is empty")
    if max(k_values) > len(masks):
        raise ValueError(
            f"input error: need {max(k_values)} masks, corpus has {len(masks)}"
        )
    if repeats < 0:
        raise ValueError(f"input error: repeats must be >= 0, got {repeats}")
    config = CascadeConfig.full_cascade()
    model = CostModel.from_params(enc_params, dec_params)
    text_ids = [dec_params.token_id(START)] * text_len

    # single-instance baseline for the simulated one-mask-per-pass comparator
    k1_batch = build_prompt_batch(image, masks[:1], enc_params)
    k1_layout = canonical_layout(
        k1_batch.image_tokens.rows * k1_batch.image_tokens.cols,
        text_len,
        [k1_batch.mask_token_sets[0].count],
        OUTPUT_SLOTS,
    )
    k1_total = estimate_cost(k1_layout, build_cascade_mask(k1_layout, config), 1, model).total

    rows = []
    for k in k_values:
        batch = build_prompt_batch(image, masks[:k], enc_params, max_masks=max(30, k))
        mask_lens = [ts.count for ts in batch.mask_token_sets]
        layout = canonical_layout(
            batch.image_tokens.rows * batch.image_tokens.cols, text_len, mask_lens, OUTPUT_SLOTS
        )
        attn = build_cascade_mask(layout, config)
        cost = estimate_cost(layout, attn, k, model)

        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            b = build_prompt_batch(image, masks[:k], enc_params, max_masks=max(30, k))
            seq = assemble_sequence(
                layout,
                dec_params,
                image_values=b.image_tokens.tokens(),
                mask_values={ts.mask_index: ts.tokens for ts in b.mask_token_sets},
                text_ids=text_ids,
            )
            forward(seq, attn, dec_params)
            times.append((time.perf_counter() - t0) * 1000.0)

        rows.append(
            ScalingRow(
                k=k,
                total_flops=cost.total,
                encoder_share=cost.encoder_flops / cost.total,
                decoder_share=cost.decoder_flops / cost.total,
                wall_time_ms=statistics.median(times) if times else None,
                comparator_flops=k * k1_total,
            )
        )

    growth = rows[-1].total_flops / rows[0].total_flops
    comparator_growth = rows[-1].comparator_flops / rows[0].comparator_flops
    return ScalingReport(
        rows=tuple(rows),
        growth_factor=growth,
        comparator_growth_factor=comparator_growth,
    )


# ---------------------------------------------------------------------------
# Filter pipeline
# ---------------------------------------------------------------------------


class AlwaysYesOracle:
    """Mock oracle that confirms every mask-category pair."""

    def ask(self, question: str, record: MaskRecord) -> str:
        return "yes"


class ScriptedOracle:
    """Mock oracle answering from an (image_id, label) -> answer table.

    Missing entries answer "yes"; an answer of "error" raises, exercising
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
    stage1_dropped: int
    head_categories: tuple[str, ...]
    stage2_queried: int
    stage2_dropped: int
    flagged: int
    final_kept: int
    kept_records: tuple[MaskRecord, ...] = field(repr=False)
    flagged_records: tuple[MaskRecord, ...] = field(repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "input_count": self.input_count,
                "stage1_kept": self.stage1_kept,
                "stage1_dropped": self.stage1_dropped,
                "head_categories": sorted(self.head_categories),
                "stage2_queried": self.stage2_queried,
                "stage2_dropped": self.stage2_dropped,
                "flagged": self.flagged,
                "final_kept": self.final_kept,
            },
            sort_keys=True,
        )


def run_filter_pipeline(
    records: list[MaskRecord],
    oracle,
    min_ratio: float = MIN_AREA_RATIO,
    head_threshold: int = HEAD_THRESHOLD,
) -> PipelineReport:
    """Stage 1: drop masks below the area ratio.  Stage 2: for categories
    with at least ``head_threshold`` surviving samples, re-query the oracle
    with the confirmation question and drop "no" answers.

    Oracle failures or unparseable answers flag the record and keep it;
    nothing is ever silently dropped.
    """
    areas: dict[str, int] = {}
    for record in records:
        area = record.mask.width * record.mask.height
        if areas.setdefault(record.image_id, area) != area:
            raise ValueError(f"inconsistent raster size for image_id {record.image_id!r}")
    kept, dropped = area_ratio_filter(records, areas, min_ratio)

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
        stage1_dropped=len(dropped),
        head_categories=tuple(sorted(head)),
        stage2_queried=queried,
        stage2_dropped=stage2_dropped,
        flagged=len(flagged),
        final_kept=len(final),
        kept_records=tuple(final),
        flagged_records=tuple(flagged),
    )
