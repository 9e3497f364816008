import json
import struct

import numpy as np
import pytest

from regionrec.attnmask import canonical_layout
from regionrec.decoder import DecoderParams, assemble_sequence, make_vocab, prompt_sequence
from regionrec.encoder import GRID_SIDE, EncoderParams, encode
from regionrec.harness import synthesize_mask_corpus
from regionrec.maskio import RasterImage, RunLengthMask
from regionrec.prompt import CONTEXT_SCALE, MaskTokenSet, build_prompt_batch, dump_token_set, mask2token
from regionrec.region import context_crop_window, downsample_to_grid, extract_and_resize, tight_bbox

from conftest import oracle_grid_cells, random_mask, raster_downsample_to_grid, raster_tight_bbox, write_pgm

# small encoder so 448-sized crops are not needed: patch 4 * grid 16 = 64
ENC = EncoderParams.seeded(7, patch_side=4, dim=8)


def _image(rng, side=64):
    return RasterImage(rng.integers(0, 256, (side, side)).astype(float))


def test_full_window_mask_gives_256_tokens(rng):
    img = _image(rng)
    mask = RunLengthMask.from_bits(np.ones((64, 64), bool))
    ts = mask2token(img, mask, ENC, scale=1.0)
    assert ts.count == 256


def test_point_mask_gives_one_token(rng):
    img = _image(rng)
    bits = np.zeros((64, 64), bool)
    bits[20, 41] = True
    ts = mask2token(img, RunLengthMask.from_bits(bits), ENC)
    assert ts.count == 1


def test_token_count_matches_grid_oracle(rng):
    img = _image(rng)
    for _ in range(30):
        mask = random_mask(rng, 64, 64, p=float(rng.random() * 0.2 + 0.01))
        ts = mask2token(img, mask, ENC, scale=2.0)
        win = context_crop_window(tight_bbox(mask), 2.0, 64, 64)
        oracle = oracle_grid_cells(mask, win, 16, 16)
        assert ts.count == int(oracle.sum())
        assert np.array_equal(ts.grid_indices, np.argwhere(oracle))


def test_tokens_are_selected_grid_features(rng):
    img = _image(rng)
    mask = random_mask(rng, 64, 64, p=0.1)
    ts = mask2token(img, mask, ENC, scale=1.5)
    win = context_crop_window(tight_bbox(mask), 1.5, 64, 64)
    from regionrec.region import extract_and_resize

    feats = encode(extract_and_resize(img, win, 64), ENC)
    gm = downsample_to_grid(mask, win, 16, 16)
    assert np.array_equal(ts.tokens, feats.values[gm.active])


def _oracle_cases():
    """(image, mask, scale): masks on each border and corner of a 64x48
    image, a one-cell mask, a mask that fills the grid, and the bench corpus."""
    rng = np.random.default_rng(21)
    h, w = 48, 64
    img = RasterImage(rng.integers(0, 256, (h, w)).astype(float))
    cases = []
    for ys, xs in [
        (slice(0, 3), slice(10, 40)),  # top
        (slice(h - 3, h), slice(5, 30)),  # bottom
        (slice(8, 40), slice(0, 2)),  # left
        (slice(2, 30), slice(w - 4, w)),  # right
        (slice(0, 5), slice(0, 5)),  # top-left corner
        (slice(h - 6, h), slice(w - 6, w)),  # bottom-right corner
    ]:
        bits = np.zeros((h, w), bool)
        bits[ys, xs] = rng.random((h, w))[ys, xs] < 0.4
        bits[ys.start, xs.start] = True
        cases.append((img, RunLengthMask.from_bits(bits), CONTEXT_SCALE))
    one = np.zeros((h, w), bool)
    one[17, 33] = True
    cases.append((img, RunLengthMask.from_bits(one), CONTEXT_SCALE))
    full = np.zeros((h, w), bool)
    full[:, 8:56] = True  # a 48x48 square: at scale 1 every cell holds pixel centres
    cases.append((img, RunLengthMask.from_bits(full), 1.0))
    corpus_img, corpus = synthesize_mask_corpus(30)
    cases.extend((corpus_img, m, CONTEXT_SCALE) for m in corpus)
    return cases


def _raster_tokens(img, mask, enc, scale):
    """Tokens and grid indices from the raster oracles' box and grid, the
    whole window cropped and encoded, and the active cells selected."""
    win = context_crop_window(raster_tight_bbox(mask), scale, img.width, img.height)
    feats = encode(extract_and_resize(img, win, enc.patch_side * GRID_SIDE), enc)
    gm = raster_downsample_to_grid(mask, win, GRID_SIDE, GRID_SIDE)
    return feats.values[gm.active], np.argwhere(gm.active)


@pytest.mark.parametrize("patch_side, dim", [(4, 1), (4, 6), (4, 8), (28, 1), (28, 6), (28, 8), (28, 16)])
def test_cells_path_equals_the_full_crop_and_encode(patch_side, dim):
    """mask2token computes only the active cells from the runs; the oracle
    scans the raster, crops the whole window, encodes every cell and
    selects the active ones."""
    enc = EncoderParams.seeded(0, patch_side=patch_side, dim=dim)
    counts = set()
    for img, mask, scale in _oracle_cases():
        ts = mask2token(img, mask, enc, scale=scale)
        tokens, grid_indices = _raster_tokens(img, mask, enc, scale)
        assert np.array_equal(ts.tokens, tokens)
        assert np.array_equal(ts.grid_indices, grid_indices)
        counts.add(ts.count)
    assert {1, 256} <= counts


def test_batch_singleton_equals_mask2token(rng):
    img = _image(rng)
    mask = random_mask(rng, 64, 64, p=0.1)
    batch = build_prompt_batch(img, [mask], ENC)
    solo = mask2token(img, mask, ENC)
    assert np.array_equal(batch.mask_token_sets[0].tokens, solo.tokens)


def test_permuted_masks_permute_token_sets_bit_identically(rng):
    img = _image(rng)
    masks = [random_mask(rng, 64, 64, p=0.1) for _ in range(4)]
    fwd = build_prompt_batch(img, masks, ENC)
    rev = build_prompt_batch(img, masks[::-1], ENC)
    for i in range(4):
        assert np.array_equal(fwd.mask_token_sets[i].tokens, rev.mask_token_sets[3 - i].tokens)
    assert np.array_equal(fwd.image_tokens.values, rev.image_tokens.values)


def test_each_batch_set_equals_mask2token_alone(rng):
    img = _image(rng)
    masks = [random_mask(rng, 64, 64, p=float(rng.random() * 0.2 + 0.01)) for _ in range(5)]
    batch = build_prompt_batch(img, masks, ENC)
    for i, m in enumerate(masks):
        alone = mask2token(img, m, ENC, mask_index=i)
        assert np.array_equal(batch.mask_token_sets[i].tokens, alone.tokens)
        assert np.array_equal(batch.mask_token_sets[i].grid_indices, alone.grid_indices)


def test_a_run_length_mask_is_decoded_once_and_tokenized_as_its_raster(rng, monkeypatch):
    """Mask2Token reads the runs and decodes no raster; its tokens are the
    raster oracles'."""
    img = _image(rng)
    masks = [random_mask(rng, 64, 64, p=float(rng.random() * 0.2 + 0.01)) for _ in range(3)]
    want = [_raster_tokens(img, m, ENC, CONTEXT_SCALE) for m in masks]
    decode, reads = RunLengthMask.bits.fget, []
    monkeypatch.setattr(RunLengthMask, "bits", property(lambda m: reads.append(id(m)) or decode(m)))
    batch = build_prompt_batch(img, masks, ENC)
    for i, (mask, (tokens, grid_indices)) in enumerate(zip(masks, want)):
        alone = mask2token(img, mask, ENC, mask_index=i)
        for ts in (batch.mask_token_sets[i], alone):
            assert np.array_equal(ts.tokens, tokens) and np.array_equal(ts.grid_indices, grid_indices)
    assert reads == []


def test_mask_of_another_size_is_rejected(rng):
    img = _image(rng)
    wrong = RunLengthMask.from_bits(np.ones((10, 200), bool))
    with pytest.raises(ValueError, match="shape"):
        mask2token(img, wrong, ENC)
    with pytest.raises(ValueError, match="shape"):
        build_prompt_batch(img, [random_mask(rng, 64, 64), wrong], ENC)


def test_cli_tokenize_exits_2_on_mask_of_another_size(tmp_path, capsys):
    from regionrec import cli
    from regionrec.maskio import MaskRecord, write_records

    write_pgm(RasterImage(np.zeros((64, 64))), tmp_path / "img.pgm")
    ok = MaskRecord(RunLengthMask.from_bits(np.ones((64, 64), bool)), "img")
    wrong = MaskRecord(RunLengthMask.from_bits(np.ones((10, 200), bool)), "img")
    argv = ["tokenize", "--image", str(tmp_path / "img.pgm"), "--out-dir", str(tmp_path / "out")]

    write_records([ok], tmp_path / "ok.jsonl")
    assert cli.main(argv + ["--masks", str(tmp_path / "ok.jsonl")]) == 0
    write_records([ok, wrong], tmp_path / "wrong.jsonl")
    assert cli.main(argv + ["--masks", str(tmp_path / "wrong.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shape error") and err.count("\n") == 1


def test_mask_independence_local_change(rng):
    img = _image(rng)
    masks = [random_mask(rng, 64, 64, p=0.1) for _ in range(3)]
    base = build_prompt_batch(img, masks, ENC)
    changed = list(masks)
    changed[1] = random_mask(rng, 64, 64, p=0.3)
    after = build_prompt_batch(img, changed, ENC)
    assert np.array_equal(base.mask_token_sets[0].tokens, after.mask_token_sets[0].tokens)
    assert np.array_equal(base.mask_token_sets[2].tokens, after.mask_token_sets[2].tokens)


def test_budget_worked_example():
    # 256 image + 4 text + 27-token mask + 1 sep + 8 output slots = 296
    assert canonical_layout(256, 4, [27], 8).n == 296


def test_budget_zero_text_is_additive():
    assert canonical_layout(256, 0, [27], 8).n == 292


def test_budget_grows_by_mask_plus_sep_plus_outputs():
    one = canonical_layout(256, 4, [256], 8).n
    two = canonical_layout(256, 4, [256, 256], 8).n
    assert two - one == 256 + 1 + 8


@pytest.mark.parametrize("text_len", [0, 4])
def test_batch_layout_is_the_canonical_layout(text_len, rng):
    batch = build_prompt_batch(_image(rng), [random_mask(rng, 64, 64, p=0.1) for _ in range(3)], ENC)
    counts = [ts.count for ts in batch.mask_token_sets]
    assert batch.layout(text_len, 5) == canonical_layout(256, text_len, counts, 5)


def test_prompt_sequence_is_the_hand_assembled_sequence(rng):
    params = DecoderParams.seeded(1, make_vocab(["cat"]), dim=8, layers=1, enc_dim=8)
    batch = build_prompt_batch(_image(rng), [random_mask(rng, 64, 64, p=0.1) for _ in range(2)], ENC)
    layout = canonical_layout(256, 2, [ts.count for ts in batch.mask_token_sets], 3)
    want = assemble_sequence(layout, params, batch.image_tokens.tokens(),
                             {ts.mask_index: ts.tokens for ts in batch.mask_token_sets}, [1, 4])
    got = prompt_sequence(batch, iter([1, 4]), params, 3)
    assert got.layout == want.layout
    assert np.array_equal(got.ids, want.ids) and np.array_equal(got.injected, want.injected)
    with pytest.raises(ValueError, match="encoder dim"):
        prompt_sequence(batch, [1, 4], DecoderParams.seeded(1, make_vocab([]), dim=8, layers=1, enc_dim=4), 3)


def load_token_set(json_path, blob_path) -> MaskTokenSet:
    """Read back what ``dump_token_set`` writes."""
    doc = json.loads(json_path.read_text(encoding="ascii"))
    blob = blob_path.read_bytes()
    assert blob[:4] == b"MTS0"
    count, dim = struct.unpack("<HH", blob[4:8])
    tokens = np.frombuffer(blob[8:], dtype="<f4").astype(np.float64).reshape(count, dim)
    return MaskTokenSet(
        tokens=tokens,
        grid_indices=np.asarray(doc["grid_indices"], dtype=np.int64),
        mask_index=doc["mask_index"],
    )


def test_token_set_dump_round_trip(tmp_path, rng):
    img = _image(rng)
    ts = mask2token(img, random_mask(rng, 64, 64, p=0.1), ENC, mask_index=3)
    dump_token_set(ts, tmp_path / "t.json", tmp_path / "t.f32")
    back = load_token_set(tmp_path / "t.json", tmp_path / "t.f32")
    assert back.mask_index == 3
    assert np.array_equal(back.grid_indices, ts.grid_indices)
    assert np.allclose(back.tokens, ts.tokens, atol=1e-7)  # f32 on disk


def test_grid_indices_must_be_row_major():
    with pytest.raises(ValueError, match="row-major"):
        MaskTokenSet(tokens=np.zeros((2, 3)), grid_indices=np.array([[1, 0], [0, 0]]), mask_index=0)
