import numpy as np
import pytest

from regionrec.attnmask import (
    CascadeConfig,
    Segment,
    SequenceLayout,
    build_cascade_mask,
    canonical_layout,
    dump_attention_mask,
    parse_layout_header,
)

from conftest import oracle_cascade_bits, oracle_position_table, random_layout

FIG4 = parse_layout_header("image:2 text:1 mask0:2 sep:1 mask1:2 out0:1 sep:1 out1:1")

ALL_CONFIGS = [
    CascadeConfig.full_cascade(),
    CascadeConfig.region_variant(),
    CascadeConfig.output_variant(),
    CascadeConfig.plain_causal(),
]


def test_fig4_full_cascade_matches_pairwise_oracle():
    built = build_cascade_mask(FIG4, CascadeConfig.full_cascade())
    assert np.array_equal(built.bits, oracle_cascade_bits(FIG4, CascadeConfig.full_cascade()))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=["full", "region", "output", "causal"])
def test_fig4_all_configs_match_oracle(config):
    built = build_cascade_mask(FIG4, config)
    assert np.array_equal(built.bits, oracle_cascade_bits(FIG4, config))


def test_k1_full_cascade_equals_plain_causal_without_separators():
    # no cross-instance pairs exist, and with no separator rows the full
    # cascade degenerates to the causal triangle
    layout = SequenceLayout(
        (Segment("image", 2), Segment("text", 1), Segment("mask", 2, 0), Segment("out", 2, 0))
    )
    full = build_cascade_mask(layout, CascadeConfig.full_cascade())
    causal = build_cascade_mask(layout, CascadeConfig.plain_causal())
    assert np.array_equal(full.bits, causal.bits)
    assert np.array_equal(full.bits, np.tril(np.ones((7, 7), dtype=bool)))


def test_k1_with_separator_differs_only_at_separator_pairs():
    layout = canonical_layout(2, 1, [2], 2)  # image:2 text:1 mask0:2 sep:1 out0:2
    full = build_cascade_mask(layout, CascadeConfig.full_cascade())
    causal = build_cascade_mask(layout, CascadeConfig.plain_causal())
    diff = full.bits ^ causal.bits
    sep = layout.positions("sep")[0]
    out_rows = layout.positions("out", 0)
    # differences live only in the separator column of output rows
    expected = np.zeros_like(diff)
    expected[out_rows, sep] = True
    assert np.array_equal(diff, expected)


def test_region_only_variant_differs_from_full_exactly_at_output_rows():
    full = build_cascade_mask(FIG4, CascadeConfig.full_cascade())
    region = build_cascade_mask(FIG4, CascadeConfig.region_variant())
    diff = full.bits ^ region.bits
    kinds, insts = oracle_position_table(FIG4)
    # all differences are visibility the region variant restores to output rows:
    # other-instance masks, separators, and earlier output chunks
    for q, k in np.argwhere(diff):
        assert kinds[q] == 4
        assert region.bits[q, k] and not full.bits[q, k]
        assert kinds[k] == 2 or (kinds[k] in (3, 4) and insts[k] != insts[q])
    out1 = FIG4.positions("out", 1)[0]
    out0 = FIG4.positions("out", 0)[0]
    assert diff[out1, out0]  # output(1) -> output(0)
    assert diff[out0, FIG4.positions("mask", 1)].all()  # output(i) -> mask(j != i)
    assert diff[out1, FIG4.positions("mask", 0)].all()
    assert np.array_equal(diff, oracle_cascade_bits(FIG4, CascadeConfig.region_variant()) ^ oracle_cascade_bits(FIG4, CascadeConfig.full_cascade()))


def test_random_layouts_match_oracle_all_configs(rng):
    layouts = [random_layout(rng) for _ in range(150)]
    # zero-length output chunks: the layout decode_objects starts from
    for _ in range(40):
        k = int(rng.integers(1, 5))
        mask_lens = [int(rng.integers(1, 4)) for _ in range(k)]
        layouts.append(canonical_layout(int(rng.integers(1, 4)), int(rng.integers(0, 3)), mask_lens, 0))
    for layout in layouts:
        for config in ALL_CONFIGS:
            built = build_cascade_mask(layout, config)
            assert np.array_equal(built.bits, oracle_cascade_bits(layout, config))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=["full", "region", "output", "causal"])
def test_incremental_batch_equivalence_random_schedules(rng, config):
    # decoding fills pre-allocated output slots and keeps the unfilled ones
    # dead; after every step of any schedule, the live part of that mask is
    # the mask of the layout whose chunks hold only the filled tokens
    for _ in range(40):
        k, slots = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        prefix = (int(rng.integers(1, 4)), int(rng.integers(0, 3)), [int(rng.integers(1, 4)) for _ in range(k)])
        fixed = canonical_layout(*prefix, slots)
        mask = build_cascade_mask(fixed, config)
        fill = [0] * k
        for owner in [None] + [int(rng.integers(0, k)) for _ in range(int(rng.integers(1, 9)))]:
            if owner is not None and fill[owner] < slots:
                fill[owner] += 1
            dead = np.concatenate([fixed.positions("out", i)[fill[i]:] for i in range(k)])
            live = np.setdiff1d(np.arange(fixed.n), dead)
            grown = SequenceLayout(tuple(Segment(seg.kind, fill[seg.index], seg.index) if seg.kind == "out" else seg
                                         for seg in fixed.segments))
            cut = mask.without(dead).bits
            assert not cut[dead].any() and not cut[:, dead].any()
            assert np.array_equal(cut[np.ix_(live, live)], oracle_cascade_bits(grown, config))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=["full", "region", "output", "causal"])
def test_visible_pairs_counts_the_oracle_bits(rng, config):
    for _ in range(60):
        layout = random_layout(rng)
        mask, oracle = build_cascade_mask(layout, config), oracle_cascade_bits(layout, config)
        assert mask.visible_pairs() == oracle.sum()
        dead = np.flatnonzero(rng.random(layout.n) < 0.3)
        oracle[dead], oracle[:, dead] = False, False
        assert mask.without(dead).visible_pairs() == oracle.sum()


def test_subset_of_causal(rng):
    for _ in range(25):
        layout = random_layout(rng)
        for config in ALL_CONFIGS:
            bits = build_cascade_mask(layout, config).bits
            assert not np.triu(bits, 1).any()


def test_three_principles_quantified(rng):
    for _ in range(25):
        layout = random_layout(rng)
        kinds, insts = oracle_position_table(layout)
        full = build_cascade_mask(layout, CascadeConfig.full_cascade()).bits
        k = layout.num_objects
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                rows = layout.positions("mask", i)
                cols = layout.positions("mask", j)
                assert not full[np.ix_(rows, cols)].any()  # principle 1
        for i in range(k):
            rows = layout.positions("out", i)
            for j in range(i):
                cols = layout.positions("out", j)
                assert not full[np.ix_(rows, cols)].any()  # principle 2
            allowed = (kinds == 0) | (kinds == 1)
            allowed |= ((kinds == 3) | (kinds == 4)) & (insts == i)
            for q in rows:
                visible = np.flatnonzero(full[q])
                assert allowed[visible].all()  # principle 3


def test_variant_lattice(rng):
    for _ in range(25):
        layout = random_layout(rng)
        full = build_cascade_mask(layout, CascadeConfig.full_cascade()).bits
        region = build_cascade_mask(layout, CascadeConfig.region_variant()).bits
        output = build_cascade_mask(layout, CascadeConfig.output_variant()).bits
        causal = build_cascade_mask(layout, CascadeConfig.plain_causal()).bits
        assert not (full & ~region).any()
        assert not (full & ~output).any()
        assert not (output & ~causal).any()
        assert not (region & ~causal).any()


def parse_attention_dump(text: str) -> tuple[np.ndarray, SequenceLayout]:
    """Read back what ``dump_attention_mask`` writes: the bits and the layout."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    layout = parse_layout_header(lines[0])
    bits = np.array([[c == "1" for c in ln.strip()] for ln in lines[1:]], dtype=bool)
    return bits, layout


def test_dump_round_trip():
    built = build_cascade_mask(FIG4, CascadeConfig.full_cascade())
    back_bits, back_layout = parse_attention_dump(dump_attention_mask(built))
    assert np.array_equal(back_bits, built.bits)
    assert back_layout.header() == FIG4.header()


def test_layout_validation():
    with pytest.raises(ValueError, match="image"):
        SequenceLayout((Segment("text", 1),))
    with pytest.raises(ValueError, match="order"):
        SequenceLayout((Segment("image", 1), Segment("mask", 1, 1), Segment("out", 1, 1)))
    with pytest.raises(ValueError, match="precede"):
        SequenceLayout(
            (Segment("image", 1), Segment("out", 1, 0), Segment("mask", 1, 0))
        )
    with pytest.raises(ValueError, match="text length"):
        canonical_layout(1, -1, [1], 1)


def test_canonical_layout_structure():
    layout = canonical_layout(256, 4, [27], 8)
    assert layout.header() == "image:256 text:4 mask0:27 sep:1 out0:8"
    assert layout.n == 296
    no_text = canonical_layout(4, 0, [2, 3], 2)
    assert no_text.header() == "image:4 mask0:2 sep:1 mask1:3 sep:1 out0:2 out1:2"


def test_diagonal_true_for_non_separator_rows(rng):
    for _ in range(20):
        layout = random_layout(rng)
        kinds, _ = oracle_position_table(layout)
        for config in ALL_CONFIGS:
            bits = build_cascade_mask(layout, config).bits
            diag = np.diag(bits)
            assert (diag | (kinds == 2)).all()
