import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from regionrec.attnmask import CascadeConfig, build_cascade_mask, canonical_layout
from regionrec.decoder import DecoderParams, make_vocab
from regionrec.encoder import EncoderParams
from regionrec.harness import (
    QUESTION_TEMPLATE,
    ScriptedOracle,
    bench_decoder_params,
    decoder_flops,
    run_filter_pipeline,
    run_scaling_bench,
    synthesize_mask_corpus,
)
from regionrec.maskio import MAX_RLE_PIXELS, MaskRecord, RunLengthMask, read_records

from conftest import save_decoder_params


def test_decoder_flops_hand_count():
    # image:2 text:1 mask0:1 sep:1 out0:1 under the full cascade; visible keys
    # per row: 1, 2 (image), 3 (text), 4 (mask), 0 (sep), 5 (out: image,
    # text, mask0, itself) -> 15 pairs; image + mask rows are injected.
    layout = canonical_layout(2, 1, [1], 1)
    mask = build_cascade_mask(layout, CascadeConfig.full_cascade())
    dec = DecoderParams.seeded(0, make_vocab([]), dim=2, heads=1, layers=1, enc_dim=4)
    n, d = 6, 2
    projections = 4 * 2 * n * d * d  # 192
    attention = 2 * 15 * d + 2 * 15 * d  # Q.K^T + A.V = 120
    mlp = 2 * (2 * n * d * 4 * d)  # 384
    head = 2 * n * d * 4  # 96: the four special tokens
    adapter = 2 * 3 * 4 * d  # 48
    assert len(dec.vocab) == 4 and mask.visible_pairs() == 15
    assert decoder_flops(n, 15, 3, dec) == projections + attention + mlp + head + adapter == 840


def test_bench_decoder_weights_are_pinned(tmp_path):
    """The bench decoder's ~4.26M seeded draws, as the DEC0 bytes they save to."""
    save_decoder_params(bench_decoder_params(0), tmp_path / "dec.bin", tmp_path / "vocab.json")
    assert (
        hashlib.sha256((tmp_path / "dec.bin").read_bytes()).hexdigest()
        == "bdd542fa17ad64d83c7d027d773017282ff4eb0f7b832cd03bcc40185d3e7835"
    )


def test_scaling_bench_rejects_negative_repeats():
    image, masks = synthesize_mask_corpus(1)
    enc = EncoderParams.seeded(0)
    dec = DecoderParams.seeded(0, make_vocab([]))
    with pytest.raises(ValueError, match="repeats"):
        run_scaling_bench([1], image, masks, enc, dec, repeats=-1)


@pytest.mark.parametrize("k_values", [[], [0], [4, 1]], ids=["empty", "zero", "descending"])
def test_scaling_bench_rejects_bad_k_values(k_values):
    image, masks = synthesize_mask_corpus(4)
    with pytest.raises(ValueError, match="k_values"):
        run_scaling_bench(k_values, image, masks, EncoderParams.seeded(0), DecoderParams.seeded(0, make_vocab([])))


# ---------------------------------------------------------------------------
# Filter pipeline
# ---------------------------------------------------------------------------


def _record(n_true: int, image_id: str = "img", label: str | None = "cat", side: int = 10) -> MaskRecord:
    bits = np.zeros(side * side, dtype=bool)
    bits[:n_true] = True
    return MaskRecord(mask=RunLengthMask.from_bits(bits.reshape(side, side)), image_id=image_id, label=label)


def _stage1(records, min_ratio):
    """Stage 1 alone: no category reaches the head threshold."""
    report = run_filter_pipeline(records, ScriptedOracle({}), min_ratio=min_ratio, head_threshold=len(records) + 1)
    assert report.stage2_queried == 0 and report.stage1_kept + report.stage1_dropped == len(records)
    return list(report.kept_records)


def test_area_filter_boundary_kept_by_geq():
    assert _stage1([_record(100, side=100)], 0.01) == [_record(100, side=100)]


def test_area_filter_strict_inequality_drops():
    assert _stage1([_record(99, side=100)], 0.01) == []


def test_area_filter_zero_ratio_keeps_everything(rng):
    records = [_record(int(rng.integers(1, 100))) for _ in range(20)]
    assert _stage1(records, 0.0) == records


def test_area_filter_partitions_and_preserves_order(rng):
    records = [_record(int(rng.integers(1, 100)), image_id=f"i{j}") for j in range(30)]
    assert _stage1(records, 0.3) == [r for r in records if r.mask.area() / 100 >= 0.3]


@pytest.mark.parametrize("min_ratio", [-0.1, 1.5])
def test_area_filter_rejects_a_ratio_outside_0_1(min_ratio):
    with pytest.raises(ValueError, match="min_ratio"):
        run_filter_pipeline([_record(5)], ScriptedOracle({}), min_ratio=min_ratio)


def test_one_image_id_with_two_raster_sizes_is_rejected():
    with pytest.raises(ValueError, match="inconsistent raster size"):
        run_filter_pipeline([_record(5), _record(5, side=12)], ScriptedOracle({}))


class _Recorder(ScriptedOracle):
    """ScriptedOracle that also records each question it is asked."""

    def __init__(self, answers):
        super().__init__(answers)
        self.questions = []

    def ask(self, question, record):
        self.questions.append(question)
        return super().ask(question, record)


@pytest.mark.parametrize(
    "answer, kept, flagged",
    [("yes", True, False), (" Yes. ", True, False), ("no", False, False), ("No way", False, False),
     ("error", True, True), ("maybe", True, True), ("", True, True)],
)
def test_stage2_outcome_per_answer(answer, kept, flagged):
    record = _record(50, image_id="a")
    oracle = _Recorder({("a", "cat"): answer})
    report = run_filter_pipeline([record], oracle, head_threshold=1)
    assert oracle.questions == [QUESTION_TEMPLATE.format(class_name="cat")]
    assert report.stage2_queried == 1 and report.stage2_dropped == int(not kept)
    assert list(report.kept_records) == ([record] if kept else [])
    assert list(report.flagged_records) == ([record] if flagged else [])
    assert report.flagged == int(flagged) and report.final_kept == int(kept)


@pytest.mark.parametrize("threshold, head", [(3, ("cat",)), (4, ())])
def test_head_category_count_equal_to_the_threshold_is_head(threshold, head):
    records = [_record(50, image_id=f"i{j}") for j in range(3)] + [_record(50, label="dog"), _record(50, label=None)]
    oracle = _Recorder({})
    report = run_filter_pipeline(records, oracle, head_threshold=threshold)
    assert report.head_categories == head
    assert report.stage2_queried == len(oracle.questions) == (3 if head else 0)
    assert report.final_kept == len(records)


def _square_counts(side: int, row: int, col: int, s: int) -> list[int]:
    """Column-major runs of an s x s square at (row, col) on a side x side raster."""
    counts = [col * side + row]
    for _ in range(s):
        counts += [s, side - s]
    counts[-1] = side * side - sum(counts[:-1])
    return counts


def test_reading_and_filtering_records_decodes_no_raster(tmp_path):
    """Four 8192 x 8192 records, 64 MiB each as a raster: reading them and
    running both filter stages stays under 1 MiB of traced memory."""
    side = 8192
    assert side * side == MAX_RLE_PIXELS
    lines = [json.dumps({"image_id": f"im{j}", "label": "cat",
                         "rle": {"size": [side, side], "counts": _square_counts(side, 100 * j, 7 * j, 3 + j)}})
             for j in range(4)]
    (tmp_path / "big.jsonl").write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        records = read_records(tmp_path / "big.jsonl")
        report = run_filter_pipeline(records, ScriptedOracle({}), min_ratio=0.0, head_threshold=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.mask.area() for r in records] == [9, 16, 25, 36]
    assert (report.final_kept, report.stage2_queried) == (4, 4)
    assert peak < 1 << 20
