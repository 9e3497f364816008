import pytest

from regionrec.attnmask import CascadeConfig, build_cascade_mask, canonical_layout
from regionrec.decoder import DecoderParams, make_vocab
from regionrec.encoder import EncoderParams
from regionrec.harness import CostModel, estimate_cost, run_scaling_bench, synthesize_mask_corpus


def test_decoder_flops_hand_count():
    # image:2 text:1 mask0:1 sep:1 out0:1 under the full cascade; visible keys
    # per row: 1, 2 (image), 3 (text), 4 (mask), 0 (sep), 5 (out: image,
    # text, mask0, itself) -> 15 pairs; image + mask rows are injected.
    layout = canonical_layout(2, 1, [1], 1)
    mask = build_cascade_mask(layout, CascadeConfig.full_cascade())
    model = CostModel(patch_side=2, enc_dim=4, channels=1, grid_side=1, dec_dim=2, dec_layers=1, vocab_size=3)
    n, d = 6, 2
    projections = 4 * 2 * n * d * d  # 192
    attention = 2 * 15 * d + 2 * 15 * d  # Q.K^T + A.V = 120
    mlp = 2 * (2 * n * d * 4 * d)  # 384
    head = 2 * n * d * 3  # 72
    adapter = 2 * 3 * 4 * d  # 48
    assert mask.visible_pairs() == 15
    assert model.decoder_flops(n, 15, 3) == projections + attention + mlp + head + adapter == 816
    assert estimate_cost(layout, mask, 1, model).decoder_flops == 816


def test_scaling_bench_rejects_negative_repeats():
    image, masks = synthesize_mask_corpus(1)
    enc = EncoderParams.seeded(0)
    dec = DecoderParams.seeded(0, make_vocab([]))
    with pytest.raises(ValueError, match="repeats"):
        run_scaling_bench([1], image, masks, enc, dec, repeats=-1)
