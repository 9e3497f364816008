"""Decoder: segment-block attention against the per-row reference, the exact
identities the cascade mask promises, and decode input checks."""

import dataclasses

import numpy as np
import pytest

from regionrec import decoder
from regionrec.attnmask import (
    MASK,
    OUT,
    AttentionMask,
    CascadeConfig,
    build_cascade_mask,
    canonical_layout,
    parse_layout_header,
)
from regionrec.decoder import (
    DecodeResult,
    DecoderParams,
    TokenSequence,
    _gelu,
    _layer_norm,
    assemble_sequence,
    decode_objects,
    embed_sequence,
    forward,
    isolate_single_mask,
    log_softmax,
    make_vocab,
    teacher_forced_loss,
)
from regionrec.encoder import FeatureGrid
from regionrec.prompt import MaskTokenSet, PromptBatch

from conftest import oracle_cascade_bits, random_layout

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


def ref_decode_objects(batch, text_ids, params, config, max_label_len) -> DecodeResult:
    """Reference decode: each token is read off one full ``forward`` over
    the sequence with its unfilled slots dead."""
    grid = batch.image_tokens
    layout = canonical_layout(grid.rows * grid.cols, len(text_ids), [ts.count for ts in batch.mask_token_sets],
                              max_label_len)
    seq = assemble_sequence(layout, params, grid.tokens(), {ts.mask_index: ts.tokens for ts in batch.mask_token_sets},
                            text_ids)
    base = build_cascade_mask(layout, config)
    ids = seq.ids.copy()
    unfilled = list(layout.positions(OUT))
    steps, labels = [], []
    for i in range(layout.num_objects):
        slots = layout.positions(OUT, i)
        lps, words = [], []
        for slot, row in zip(slots, [layout.positions(MASK, i)[-1], *slots[:-1]]):
            filled = TokenSequence(ids=ids, injected=seq.injected, layout=layout)
            logits = forward(filled, base.without(unfilled), params)[row]
            tok = int(np.argmax(logits))
            lps.append(float(log_softmax(logits)[tok]))
            ids[slot] = tok
            unfilled.remove(slot)
            if tok == params.end_id:
                break
            words.append(params.vocab[tok])
        steps.append(tuple(lps))
        labels.append(" ".join(words))
    return DecodeResult.from_steps(labels, steps)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return DecoderParams.seeded(3, VOCAB, dim=16, heads=2, layers=2, enc_dim=ENC_DIM, max_len=256)


@pytest.fixture(scope="module")
def cli_params():
    """The CLI decoder's shape: dim 32, 2 heads, a 64-word vocabulary."""
    return DecoderParams.seeded(5, make_vocab([f"w{i}" for i in range(60)]), dim=32, heads=2, layers=2,
                                enc_dim=ENC_DIM, max_len=256)


@pytest.fixture(scope="module")
def wide_params():
    """dim 128, where 4-row padding of the decode step's products is not
    bit-equal to ``forward``'s rows."""
    return DecoderParams.seeded(4, VOCAB, dim=128, heads=8, layers=2, enc_dim=ENC_DIM, max_len=256)


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
    grid = FeatureGrid(rng.normal(size=(grid_side, grid_side, ENC_DIM)))
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


@pytest.mark.parametrize("header", ["image:1", "image:1 mask0:1 out0:0", "image:3 mask0:2 mask1:1 out0:0 out1:2"])
def test_forward_matches_reference_on_edge_layouts(header, params, rng):
    layout = parse_layout_header(header)
    for config in ALL_CONFIGS:
        assert_close_to_oracle(random_sequence(rng, layout, params), build_cascade_mask(layout, config), params)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_blocks_follow_the_segment_table(config, params, rng):
    """Every live row lies in exactly one block, which stays inside its
    segment and whose keys up to the row are the oracle's visible set;
    separator and dead rows lie in no block.  ``bits``, drawn from the
    blocks, is the oracle's matrix."""
    for _ in range(20):
        layout = random_layout(rng)
        n = layout.n
        segment_of = np.repeat(np.arange(len(layout.segments)), [seg.length for seg in layout.segments])
        separator = np.array([seg.kind == "sep" for seg in layout.segments])[segment_of]
        keep = int(rng.integers(layout.num_objects))
        isolated = isolate_single_mask(random_sequence(rng, layout, params), layout, keep)[1].dead
        dead_sets = [np.zeros(0, dtype=np.int64), np.flatnonzero(rng.random(n) < 0.1),
                     np.flatnonzero(rng.random(n) < 0.4), random_fill(rng, layout)[1], np.flatnonzero(isolated)]
        for dead in dead_sets:
            want = oracle_cascade_bits(layout, config)
            want[dead] = False
            want[:, dead] = False
            mask = build_cascade_mask(layout, config).without(dead)
            assert np.array_equal(mask.bits, want)
            in_blocks = np.zeros(n, dtype=np.int64)
            for start, stop, keys in mask.blocks():
                in_blocks[start:stop] += 1
                assert segment_of[start] == segment_of[stop - 1]
                for r in range(start, stop):
                    assert np.array_equal(keys[keys <= r], np.flatnonzero(want[r]))
            live = ~separator
            live[dead] = False
            assert np.array_equal(in_blocks, live.astype(np.int64))


def test_forward_rejects_a_mask_of_another_layout(params, rng):
    layout = parse_layout_header("image:2 mask0:1 sep:1 out0:1")
    other = parse_layout_header("image:3 mask0:1 out0:1")
    seq = random_sequence(rng, layout, params)
    with pytest.raises(ValueError, match="layout"):
        forward(seq, build_cascade_mask(other, CascadeConfig.full_cascade()), params)


def test_no_dense_matrix_is_built_on_the_hot_path(params, rng, monkeypatch):
    layout = parse_layout_header("image:1 mask0:1 sep:1 out0:2")
    seq = assemble_sequence(layout, params, rng.normal(size=(1, ENC_DIM)), {0: rng.normal(size=(1, ENC_DIM))},
                            [], output_ids={0: [params.token_id("w5"), params.end_id]})
    mask = build_cascade_mask(layout, CascadeConfig.full_cascade())
    forward(seq, mask, params)
    teacher_forced_loss(seq, mask, params)
    assert "bits" not in mask.__dict__
    seen = []
    blocks = AttentionMask.blocks

    def spy(mask):
        seen.append(mask)
        return blocks(mask)

    monkeypatch.setattr(AttentionMask, "blocks", spy)
    decode_objects(random_batch(rng, [2, 1]), [params.token_id("<start>")], params, max_label_len=3)
    # the prefix pass takes the only blocks of a decode; each step forms its own
    assert len(seen) == 1 and "bits" not in seen[0].__dict__


# the weights a decode step multiplies: each layer's q, k, v, o, MLP up and
# down, and the head, of the CLI decoder (dim 32, 64 words), the bench
# decoder (dim 256, 128 words) and ``wide_params`` (dim 128)
STEP_WEIGHT_SHAPES = sorted({(d, d) for d in (32, 128, 256)} | {(d, 4 * d) for d in (32, 128, 256)}
                            | {(4 * d, d) for d in (32, 128, 256)} | {(32, 64), (256, 128), (128, len(VOCAB))})
# widths that leave 1 to 4 over a multiple of 8: without a column pad, few
# rows of these products differ from the n-row product on OpenBLAS 0.3.31
ODD_WIDTH_SHAPES = [(16, 9), (32, 65), (32, 66), (32, 67), (32, 68), (128, 124), (256, 129)]


@pytest.mark.parametrize("shape", STEP_WEIGHT_SHAPES + ODD_WIDTH_SHAPES,
                         ids=[f"{a}x{b}" for a, b in STEP_WEIGHT_SHAPES + ODD_WIDTH_SHAPES])
def test_padded_products_are_bit_equal_to_rows_of_the_full_product(shape):
    """The decode step multiplies a few rows where ``forward`` multiplies n;
    ``_dense`` pads them so that this BLAS build gives the same bits.  An odd
    width is compared with ``_dense`` over all n rows, which is what
    ``forward`` multiplies."""
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    w = rng.normal(size=shape)
    for n in (37, 383, 2101):
        x = rng.normal(size=(n, shape[0]))
        full = decoder._dense(x, w) if shape in ODD_WIDTH_SHAPES else x @ w
        for m in range(1, 21):
            for lo in (0, (n - m) // 3, n - m):
                assert np.array_equal(decoder._dense(x[lo : lo + m], w), full[lo : lo + m]), (
                    f"{m} rows at {lo} of {n} times a {shape} weight differ from the full product's rows: "
                    f"padding to {decoder._MIN_ROWS} rows does not make decode steps bit-equal on this BLAS build")


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


def test_isolation_rejects_a_layout_that_is_not_the_sequences(params, rng):
    """A layout of the same length would otherwise move the kept object."""
    seq = random_sequence(rng, parse_layout_header("image:2 mask0:2 sep:1 mask1:2 out0:1 out1:1"), params)
    other = parse_layout_header("image:2 mask0:1 sep:1 mask1:3 out0:1 out1:1")
    assert other.n == seq.layout.n
    with pytest.raises(ValueError, match="is not the sequence's"):
        isolate_single_mask(seq, other, 0, pad_id=params.pad_id)


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


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("shape", ["dim16", "dim128", "cli"])
def test_cached_decode_equals_the_per_step_forward(config, shape, params, wide_params, cli_params, rng):
    """Labels and every log-prob are bit-equal to the per-step full forward."""
    dec = {"dim16": params, "dim128": wide_params, "cli": cli_params}[shape]
    text_ids = [dec.token_id("<start>"), dec.token_id("w0")]
    for slots in (1, 2, 3, 5, 16):
        side = int(rng.integers(1, 5))
        mask_lens = [int(m) for m in rng.integers(1, side * side + 1, size=int(rng.integers(1, 7)))]
        batch = random_batch(rng, mask_lens, grid_side=side)
        want = ref_decode_objects(batch, text_ids, dec, config, slots)
        assert decode_objects(batch, text_ids, dec, config=config, max_label_len=slots) == want


@pytest.mark.parametrize("shape", ["dim16", "dim128", "cli"])
def test_one_pass_over_two_chunks_equals_one_pass_per_chunk(shape, params, wide_params, cli_params, rng):
    """Under the full cascade no chunk reads another.  After the decode's
    prefix pass, one ``_layers`` call over two chunks' filled slots, each
    chunk its own block, gives rows, keys and values bit-equal to one call
    per chunk."""
    dec = {"dim16": params, "dim128": wide_params, "cli": cli_params}[shape]
    for slots in (2, 3, 8, 16):
        k = int(rng.integers(2, 6))
        layout = canonical_layout(4, 2, [int(m) for m in rng.integers(1, 5, size=k)], slots)
        x = embed_sequence(random_sequence(rng, layout, dec, fill_all=True), dec)
        blocks = build_cascade_mask(layout, CascadeConfig.full_cascade()).blocks()
        first_slot = int(layout.positions(OUT)[0])
        prefix = [b for b in blocks if b[0] < first_slot]
        cache = [(np.empty_like(x), np.empty_like(x)) for _ in dec.blocks]
        decoder._layers(x[:first_slot], np.arange(first_slot), prefix, dec, cache)
        # the earlier chunk keeps an unfilled slot, so the rows are never one run
        chunks = []
        for i, most in zip(sorted(rng.choice(k, size=2, replace=False)), (slots - 1, slots)):
            lo, _, keys = blocks[len(prefix) + i]
            stop = lo + int(rng.integers(1, most + 1))
            chunks.append((lo, stop, keys[keys < stop]))
        rows = np.concatenate([np.arange(lo, stop) for lo, stop, _ in chunks])
        assert np.diff(rows).max() > 1

        joint_cache = [(kc.copy(), vc.copy()) for kc, vc in cache]
        joint = decoder._layers(x[rows], rows, chunks, dec, joint_cache)
        alone = np.concatenate([decoder._layers(x[lo:stop], np.arange(lo, stop), [(lo, stop, keys)], dec, cache)
                                for lo, stop, keys in chunks])
        assert np.array_equal(joint, alone)
        for (kj, vj), (ka, va) in zip(joint_cache, cache):
            assert np.array_equal(kj[rows], ka[rows]) and np.array_equal(vj[rows], va[rows])


def test_object0_steps_are_independent_of_k(params, rng):
    # object 0's output slots move with K; zero position embeddings remove
    # the one input that depends on where a row sits
    unplaced = dataclasses.replace(params, pos=np.zeros_like(params.pos))
    batch = random_batch(rng, [3, 1, 4, 2])
    alone = PromptBatch(batch.image_tokens, batch.mask_token_sets[:1])
    text_ids = [unplaced.token_id("<start>")]
    k4 = decode_objects(batch, text_ids, unplaced, max_label_len=5)
    k1 = decode_objects(alone, text_ids, unplaced, max_label_len=5)
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
        changed = forward(TokenSequence(ids=ids, injected=seq.injected, layout=layout), mask, params)
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


def test_decode_reads_text_ids_once(params, rng):
    batch = random_batch(rng, [2, 1])
    text_ids = [params.token_id("<start>"), params.token_id("w0")]
    from_list = decode_objects(batch, text_ids, params, max_label_len=3)
    from_iter = decode_objects(batch, iter(text_ids), params, max_label_len=3)
    assert from_iter == from_list


# ---------------------------------------------------------------------------
# Boundary checks of sequence assembly, scoring and results
# ---------------------------------------------------------------------------


def test_encode_label_ends_with_end_and_rejects_an_unknown_word(params):
    assert decoder.encode_label(" w3  w0\t", params) == [7, 4, params.end_id]
    assert decoder.encode_label("", params) == [params.end_id]
    with pytest.raises(ValueError) as exc:
        decoder.encode_label("w3 cat", params)
    assert str(exc.value) == "vocab error: unknown token 'cat'"


@pytest.mark.parametrize(
    "bad, message",
    [({"image_values": np.zeros((1, ENC_DIM))}, "shape error: image segment does not match injected values"),
     ({"text_ids": []}, "shape error: text segment length mismatch"),
     ({"mask_values": {0: np.zeros((2, ENC_DIM + 1))}}, "shape error: mask segment 0 mismatch"),
     ({"output_ids": {0: [4, 5, 3]}}, "output chunk 0 overflows its slots")],
    ids=["image", "text", "mask", "overflow"],
)
def test_assemble_sequence_rejects_values_that_do_not_fit_their_segment(bad, message, params):
    layout = parse_layout_header("image:2 text:1 mask0:2 sep:1 out0:2")
    good = {"image_values": np.zeros((2, ENC_DIM)), "mask_values": {0: np.zeros((2, ENC_DIM))}, "text_ids": [4],
            "output_ids": {0: [5, 3]}}
    assemble_sequence(layout, params, **good)
    with pytest.raises(ValueError) as exc:
        assemble_sequence(layout, params, **{**good, **bad})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "header, gold, message",
    [("image:1 mask0:1 sep:1 out0:3", [], "precondition violation: output chunk 0 is empty"),
     ("image:1 mask0:1 sep:1 out0:3", [5, 0, 3], "output chunk 0 has pad gaps"),
     ("image:1 mask0:1 sep:1 out0:3", [5, 6], "precondition violation: chunk 0 does not end with '<end>'"),
     ("image:1", [], "precondition violation: no output positions")],
    ids=["empty", "pad-gap", "no-end", "no-objects"],
)
def test_teacher_forced_loss_rejects_a_chunk_it_cannot_score(header, gold, message, params, rng):
    layout = parse_layout_header(header)
    seq = assemble_sequence(layout, params, rng.normal(size=(1, ENC_DIM)), {0: rng.normal(size=(1, ENC_DIM))}, [],
                            output_ids={0: gold})
    with pytest.raises(ValueError) as exc:
        teacher_forced_loss(seq, build_cascade_mask(layout, CascadeConfig.full_cascade()), params)
    assert str(exc.value) == message


@pytest.mark.parametrize("keep", [-1, 2])
def test_isolation_rejects_a_keep_out_of_range(keep, params, rng):
    layout = parse_layout_header("image:2 mask0:1 sep:1 mask1:1 out0:1 out1:1")
    with pytest.raises(IndexError) as exc:
        isolate_single_mask(random_sequence(rng, layout, params), layout, keep)
    assert str(exc.value) == f"keep {keep} out of range for K=2"


def test_decode_result_sums_its_steps_and_rejects_sums_that_differ():
    result = DecodeResult.from_steps(["w1 w2", ""], [(-0.5, -0.25), (-1.0,)])
    assert result == DecodeResult(("w1 w2", ""), ((-0.5, -0.25), (-1.0,)), (-0.75, -1.0), -1.75)
    with pytest.raises(ValueError, match="lengths differ"):
        DecodeResult(("w1",), ((-0.5,),), (-0.5, -1.0), -1.5)
    with pytest.raises(ValueError, match="sum of its steps"):
        DecodeResult(("w1",), ((-0.5,),), (-0.4,), -0.4)
    with pytest.raises(ValueError, match="lengths differ"):  # a label with no steps
        DecodeResult(("a", "b"), ((-1.0,),), (-1.0, -2.0), -3.0)
    with pytest.raises(ValueError, match="sum of per_object_logprob"):
        DecodeResult(("a",), ((-1.0,),), (-1.0,), 5.0)
