"""Decoder: segment-block attention against the per-row reference, the exact
identities the cascade mask promises, and decode input checks."""

import numpy as np
import pytest

from regionrec.attnmask import (
    MASK,
    OUT,
    AttentionMaskMatrix,
    CascadeConfig,
    build_cascade_mask,
    canonical_layout,
    parse_layout_header,
)
from regionrec.decoder import (
    DecoderParams,
    TokenSequence,
    _gelu,
    _layer_norm,
    assemble_sequence,
    decode_objects,
    embed_sequence,
    forward,
    isolate_single_mask,
    make_vocab,
    teacher_forced_loss,
)
from regionrec.encoder import FeatureGrid
from regionrec.prompt import MaskTokenSet, PromptBatch

from conftest import random_layout

ALL_CONFIGS = [
    CascadeConfig.full_cascade(),
    CascadeConfig.region_variant(),
    CascadeConfig.output_variant(),
    CascadeConfig.plain_causal(),
]
CONFIG_IDS = ["full", "region", "output", "causal"]
TOL = 1e-12  # block matmuls sum in another order than the per-row einsums
ENC_DIM = 4
VOCAB = make_vocab([f"w{i}" for i in range(9)])


# ---------------------------------------------------------------------------
# Reference: per-row attention over each row's visible runs
# ---------------------------------------------------------------------------


def oracle_visible_runs(bits: np.ndarray) -> list[list[tuple[int, int]]]:
    """Per-row visible index set as contiguous [start, end) runs."""
    runs_per_row = []
    for row in bits:
        idx = np.flatnonzero(row)
        if idx.size == 0:
            runs_per_row.append([])
            continue
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [idx.size - 1]))
        runs_per_row.append([(int(idx[s]), int(idx[e]) + 1) for s, e in zip(starts, ends)])
    return runs_per_row


def oracle_attention(x_norm, block, heads, runs) -> np.ndarray:
    """Index-skipping attention, one query row at a time."""
    n, dim = x_norm.shape
    dh = dim // heads
    scale = 1.0 / np.sqrt(dh)
    q = (x_norm @ block.wq).reshape(n, heads, dh)
    k = (x_norm @ block.wk).reshape(n, heads, dh)
    v = (x_norm @ block.wv).reshape(n, heads, dh)

    out = np.zeros((n, dim))
    for qi in range(n):
        row_runs = runs[qi]
        if not row_runs:
            continue
        scores = [np.einsum("hd,mhd->hm", q[qi], k[s:e]) * scale for s, e in row_runs]
        sc = np.concatenate(scores, axis=1)  # (heads, m_total)
        sc -= sc.max(axis=1, keepdims=True)
        e_sc = np.exp(sc)
        w = e_sc / e_sc.sum(axis=1, keepdims=True)
        acc = np.zeros((heads, dh))
        offset = 0
        for s, e in row_runs:
            m = e - s
            acc += np.einsum("hm,mhd->hd", w[:, offset : offset + m], v[s:e])
            offset += m
        out[qi] = acc.reshape(dim)
    return out @ block.wo


def oracle_forward(seq, mask, params) -> np.ndarray:
    x = embed_sequence(seq, params)
    runs = oracle_visible_runs(mask.bits)
    for block in params.blocks:
        x = x + oracle_attention(_layer_norm(x, block.ln1_g, block.ln1_b), block, params.heads, runs)
        h = _layer_norm(x, block.ln2_g, block.ln2_b)
        x = x + _gelu(h @ block.w1) @ block.w2
    return _layer_norm(x, params.ln_f_g, params.ln_f_b) @ params.head


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return DecoderParams.seeded(3, VOCAB, dim=16, heads=2, layers=2, enc_dim=ENC_DIM, max_len=256)


@pytest.fixture(scope="module")
def params_nopos():
    return DecoderParams.seeded(
        3, VOCAB, dim=16, heads=2, layers=2, enc_dim=ENC_DIM, positional_mode="none", max_len=256
    )


def random_sequence(rng, layout, params, fill_all=False) -> TokenSequence:
    """Random injected rows and text, and each output chunk filled to a
    random length (the whole chunk with ``fill_all``)."""
    image_len, mask_lens, out_lens, text_len = 0, {}, {}, 0
    for seg in layout.segments:
        if seg.kind == "image":
            image_len = seg.length
        elif seg.kind == "text":
            text_len = seg.length
        elif seg.kind == MASK:
            mask_lens[seg.index] = seg.length
        elif seg.kind == OUT:
            out_lens[seg.index] = seg.length
    words = len(params.vocab)
    output_ids = {
        i: list(rng.integers(4, words, size=o if fill_all else int(rng.integers(0, o + 1))))
        for i, o in out_lens.items()
    }
    return assemble_sequence(
        layout,
        params,
        image_values=rng.normal(size=(image_len, ENC_DIM)),
        mask_values={i: rng.normal(size=(m, ENC_DIM)) for i, m in mask_lens.items()},
        text_ids=rng.integers(4, words, size=text_len),
        output_ids=output_ids,
    )


def random_batch(rng, mask_lens, grid_side=2) -> PromptBatch:
    sets = []
    for i, m in enumerate(mask_lens):
        cells = np.sort(rng.choice(grid_side * grid_side, size=m, replace=False))
        idx = np.stack([cells // grid_side, cells % grid_side], axis=1)
        sets.append(MaskTokenSet(tokens=rng.normal(size=(m, ENC_DIM)), grid_indices=idx, mask_index=i))
    grid = FeatureGrid(grid_side, grid_side, ENC_DIM, rng.normal(size=(grid_side, grid_side, ENC_DIM)))
    return PromptBatch(image_tokens=grid, mask_token_sets=tuple(sets))


def random_fill(rng, layout) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Decode-time state: each chunk filled to a random prefix.

    Returns each chunk's (start, filled count) and the unfilled (dead) slots.
    """
    chunks, dead = [], []
    pos = 0
    for seg in layout.segments:
        if seg.kind == OUT:
            fill = int(rng.integers(0, seg.length + 1))
            chunks.append((pos, fill))
            dead.extend(range(pos + fill, pos + seg.length))
        pos += seg.length
    return chunks, np.asarray(dead, dtype=np.int64)


def assert_close_to_oracle(seq, mask, params):
    got = forward(seq, mask, params)
    want = oracle_forward(seq, mask, params)
    assert np.abs(got - want).max() <= TOL
    dead = ~mask.bits.any(axis=1)
    assert np.array_equal(got[dead], want[dead])


# ---------------------------------------------------------------------------
# Segment-block attention == per-row reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_forward_matches_per_row_reference_on_random_layouts(config, params, rng):
    for _ in range(6):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params)
        assert_close_to_oracle(seq, build_cascade_mask(layout, config), params)


def test_forward_matches_reference_on_isolated_masks(params, rng):
    for _ in range(4):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params)
        keep = int(rng.integers(layout.num_objects))
        iso_seq, iso_mask = isolate_single_mask(seq, layout, keep, pad_id=params.pad_id)
        assert_close_to_oracle(iso_seq, iso_mask, params)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_forward_matches_reference_on_dead_decode_slots(config, params, rng):
    for _ in range(4):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params, fill_all=True)
        mask = build_cascade_mask(layout, config).without(random_fill(rng, layout)[1])
        assert_close_to_oracle(seq, mask, params)


def test_forward_matches_reference_on_arbitrary_causal_masks(params, rng):
    # rows that do not share their predecessor's keys form blocks of one row
    for _ in range(4):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params)
        bits = np.tril(rng.random((layout.n, layout.n)) < 0.6)
        assert_close_to_oracle(seq, AttentionMaskMatrix(n=layout.n, bits=bits), params)


@pytest.mark.parametrize("header", ["image:1", "image:1 mask0:1 out0:0", "image:3 mask0:2 mask1:1 out0:0 out1:2"])
def test_forward_matches_reference_on_edge_layouts(header, params, rng):
    layout = parse_layout_header(header)
    for config in ALL_CONFIGS:
        assert_close_to_oracle(random_sequence(rng, layout, params), build_cascade_mask(layout, config), params)


def test_forward_requires_the_layout(params, rng):
    layout = canonical_layout(2, 1, [2], 2)
    seq = random_sequence(rng, layout, params)
    bare = TokenSequence(ids=seq.ids, injected=seq.injected)
    with pytest.raises(ValueError, match="layout"):
        forward(bare, build_cascade_mask(layout, CascadeConfig.full_cascade()), params)


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------


def test_isolation_leaves_kept_rows_bit_identical(params, rng):
    for _ in range(4):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params)
        full = forward(seq, build_cascade_mask(layout, CascadeConfig.full_cascade()), params)
        keep = int(rng.integers(layout.num_objects))
        alone = forward(*isolate_single_mask(seq, layout, keep, pad_id=params.pad_id), params)
        rows = np.concatenate([layout.positions("image"), layout.positions("text"),
                               layout.positions(MASK, keep), layout.positions(OUT, keep)])
        assert np.array_equal(full[rows], alone[rows])


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_each_decode_step_equals_a_teacher_forced_forward(config, params, rng):
    """Every step's token is the argmax, and its log-prob the log-softmax, of
    one forward over the decoded output with unused trailing slots dead."""
    text_ids = [params.token_id("<start>"), params.token_id("w0")]
    for _ in range(6):
        mask_lens = [int(m) for m in rng.integers(1, 5, size=int(rng.integers(1, 5)))]
        slots = int(rng.integers(1, 6))
        batch = random_batch(rng, mask_lens)
        result = decode_objects(batch, text_ids, params, config=config, max_label_len=slots)
        decoded = {}
        for i, (label, steps) in enumerate(zip(result.labels, result.stepwise_logprobs)):
            ids = [params.token_id(w) for w in label.split()]
            decoded[i] = ids + [params.end_id] * (len(steps) - len(ids))
        layout = canonical_layout(4, len(text_ids), mask_lens, slots)
        seq = assemble_sequence(layout, params, batch.image_tokens.tokens(),
                                {ts.mask_index: ts.tokens for ts in batch.mask_token_sets}, text_ids, decoded)
        unused = np.concatenate([layout.positions(OUT, i)[len(ids):] for i, ids in decoded.items()])
        logits = forward(seq, build_cascade_mask(layout, config).without(unused), params)
        for i, ids in decoded.items():
            rows = [layout.positions(MASK, i)[-1], *layout.positions(OUT, i)[: len(ids) - 1]]
            for row, tok, lp in zip(rows, ids, result.stepwise_logprobs[i]):
                assert int(np.argmax(logits[row])) == tok
                logp = logits[row] - np.log(np.exp(logits[row]).sum())
                assert abs(logp[tok] - lp) <= TOL


def test_object0_steps_are_independent_of_k(params_nopos, rng):
    batch = random_batch(rng, [3, 1, 4, 2])
    alone = PromptBatch(batch.image_tokens, batch.mask_token_sets[:1])
    text_ids = [params_nopos.token_id("<start>")]
    k4 = decode_objects(batch, text_ids, params_nopos, max_label_len=5)
    k1 = decode_objects(alone, text_ids, params_nopos, max_label_len=5)
    assert k4.stepwise_logprobs[0] == k1.stepwise_logprobs[0]
    assert k4.labels[0] == k1.labels[0]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_last_filled_token_does_not_reach_earlier_rows(config, params, rng):
    for _ in range(4):
        layout = random_layout(rng)
        seq = random_sequence(rng, layout, params, fill_all=True)
        chunks, dead = random_fill(rng, layout)
        mask = build_cascade_mask(layout, config).without(dead)
        filled = [start + fill - 1 for start, fill in chunks if fill]
        if not filled:
            continue
        last = int(rng.choice(filled))
        ids = seq.ids.copy()
        ids[last] = 4 + (ids[last] - 3) % (len(VOCAB) - 4)
        changed = forward(seq.with_ids(ids), mask, params)
        base = forward(seq, mask, params)
        assert np.array_equal(base[:last], changed[:last])
        assert not np.array_equal(base[last], changed[last])


def test_teacher_forced_loss_matches_per_row_reference(params, rng):
    # image:1 mask0:1 sep:1 out0:2 with gold "w5 <end>": the first target is
    # predicted from the mask row (1), the second from the first slot (3)
    layout = parse_layout_header("image:1 mask0:1 sep:1 out0:2")
    gold = [params.token_id("w5"), params.end_id]
    seq = assemble_sequence(layout, params, rng.normal(size=(1, ENC_DIM)), {0: rng.normal(size=(1, ENC_DIM))},
                            [], output_ids={0: gold})
    mask = build_cascade_mask(layout, CascadeConfig.full_cascade())
    logits = oracle_forward(seq, mask, params)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    want = -(logp[1, gold[0]] + logp[3, gold[1]]) / 2
    assert abs(teacher_forced_loss(seq, mask, params) - want) <= TOL


# ---------------------------------------------------------------------------
# decode_objects input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1])
def test_decode_rejects_max_label_len_below_one(bad, params, rng):
    batch = random_batch(rng, [2, 1])
    with pytest.raises(ValueError, match="max_label_len"):
        decode_objects(batch, [params.token_id("<start>")], params, max_label_len=bad)
