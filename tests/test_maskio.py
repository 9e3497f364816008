import json

import numpy as np
import pytest

from regionrec import maskio, region
from regionrec.attnmask import parse_layout_header
from regionrec.decoder import TokenSequence
from regionrec.encoder import EncoderParams, FeatureGrid
from regionrec.maskio import (
    MAX_RLE_PIXELS,
    BinaryMask,
    MaskRecord,
    RasterImage,
    RunLengthMask,
    mask_from_rle,
    mask_to_rle,
    read_pgm,
    read_records,
    write_records,
)
from regionrec.prompt import MaskTokenSet
from regionrec.region import GridMask

from conftest import random_mask, write_pgm


def test_read_p5_direct_byte_copy(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = read_pgm(path)
    assert (img.width, img.height) == (2, 2)
    assert img.data.ravel().tolist() == [0, 255, 128, 64]


def test_read_p2_single_pixel(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 1 1 255 200")
    img = read_pgm(path)
    assert (img.width, img.height) == (1, 1)
    assert img.data[0, 0] == 200


def test_truncated_p5_is_length_error(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128]))
    with pytest.raises(ValueError, match="length"):
        read_pgm(path)


def test_bad_magic_names_field(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(path)


@pytest.mark.parametrize("data", [b"P5\n2 1\n15\n\x0f\xc8", b"P2 2 1 15 15 200"], ids=["P5", "P2"])
def test_pixel_above_maxval_rejected(data, tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="outside 0..maxval"):
        read_pgm(path)


def test_maxval_above_255_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 1 1 65535 1234")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


def test_pgm_comments_are_skipped(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2 # comment\n2 1 # size\n255\n7 9")
    img = read_pgm(path)
    assert img.data.ravel().tolist() == [7, 9]


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"P5#c\n2 1\n255\n\x07\x08", [7, 8]),  # a comment glued to the magic
        (b"P5\r2 1\r255\r\x01\x02", [1, 2]),  # CR-only line ends, CR before the payload
        (b"P2 2 1 255\n3 4\n# end", [3, 4]),  # a trailing comment with no newline
        (b"P2 3 1 255\n1 # one\n2#two\r3", [1, 2, 3]),  # comments between pixels
        (b"P2\x0b2\x0c1\t255 5 6", [5, 6]),  # every byte that isspace() accepts separates
        (b"P5 2 2 # no maxval", "pgm parse error: missing maxval"),
        (b"# only a comment", "pgm parse error: missing magic"),
        (b"P2 x 1 255 0", "pgm parse error: bad width 'x'"),
        (b"P2 1#1 255 0", "pgm parse error: missing height"),  # a comment runs to the line end
        (b"P2 2 2 255 1 2 3", "pgm length error: expected 4 values, got 3"),
        (b"P2 1 1 255 1 2", "pgm length error: expected 1 values, got 2"),
        (b"P2 2 1 255 1 z", "pgm parse error: bad pixel value 'z'"),
        (b"P5 2 1 255#ab", "pgm parse error: no whitespace after maxval"),  # not a payload
        (b"P5 2 1 255\n#a", [35, 97]),  # past the one separator byte, '#' is a pixel
        (b"P2 0 1 255", "pgm parse error: non-positive width/height"),
    ],
)
def test_pgm_token_edges_read_exactly(data, expected, tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            read_pgm(path)
        assert str(exc.value) == expected
    else:
        assert read_pgm(path).data.ravel().tolist() == expected


def test_pgm_round_trip(tmp_path, rng):
    arr = rng.integers(0, 256, size=(5, 7)).astype(np.float64)
    img = RasterImage(arr)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert path.read_bytes().startswith(b"P5\n7 5\n255\n")
    back = read_pgm(path)
    assert np.array_equal(back.data, img.data)


def test_rle_single_run_all_true():
    mask = mask_from_rle({"size": [2, 2], "counts": [0, 4]})
    assert mask.bits.all() and (mask.height, mask.width) == (2, 2)


def test_rle_hand_expanded_column_major():
    # counts [1,2,1]: column-major order false,true,true,false
    mask = mask_from_rle({"size": [2, 2], "counts": [1, 2, 1]})
    # column 0 = [F, T], column 1 = [T, F]
    assert mask.bits[0, 0] == False  # noqa: E712
    assert mask.bits[1, 0] == True  # noqa: E712
    assert mask.bits[0, 1] == True  # noqa: E712
    assert mask.bits[1, 1] == False  # noqa: E712


def test_rle_count_sum_mismatch():
    with pytest.raises(ValueError, match="length"):
        mask_from_rle({"size": [1, 2], "counts": [3]})


def test_rle_negative_count():
    with pytest.raises(ValueError, match="negative"):
        mask_from_rle({"size": [1, 2], "counts": [-1, 3]})


def test_rle_round_trip_fuzz(rng):
    for _ in range(200):
        m = random_mask(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), p=rng.random())
        assert mask_from_rle(mask_to_rle(m)) == m


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="true bits"):
        BinaryMask(np.zeros((3, 3), dtype=bool))


def test_rle_size_up_to_the_pixel_cap_is_accepted():
    mask = mask_from_rle({"size": [1, MAX_RLE_PIXELS], "counts": [MAX_RLE_PIXELS - 1, 1]})
    assert (mask.height, mask.width, mask.area()) == (1, MAX_RLE_PIXELS, 1)
    with pytest.raises(ValueError, match="rle size error"):
        mask_from_rle({"size": [1, MAX_RLE_PIXELS + 1], "counts": [MAX_RLE_PIXELS, 1]})


@pytest.mark.parametrize(
    "build, arr",
    [(RasterImage, np.ones((2, 2, 1))), (RasterImage, np.ones(4)), (RasterImage, np.ones((0, 3))),
     (BinaryMask, np.ones((2, 2, 1), bool)), (BinaryMask, np.ones(4, bool)), (BinaryMask, np.ones((0, 3), bool)),
     (FeatureGrid, np.ones((2, 2))), (FeatureGrid, np.ones((2, 2, 2, 1))), (FeatureGrid, np.ones((2, 2, 0))),
     (GridMask, np.ones((2, 2, 1), bool)), (GridMask, np.ones(4, bool)), (GridMask, np.ones((3, 0), bool))],
    ids=["image-3d", "image-1d", "image-empty", "mask-3d", "mask-1d", "mask-empty",
         "grid-2d", "grid-4d", "grid-empty", "gridmask-3d", "gridmask-1d", "gridmask-empty"],
)
def test_an_array_of_the_wrong_rank_or_empty_is_rejected(build, arr):
    """Sizes are read from the array, so its rank and extent are what is checked."""
    with pytest.raises(ValueError):
        build(arr)


@pytest.mark.parametrize(
    "build, name, arr",
    [(RasterImage, "data", np.ones((4, 4))), (BinaryMask, "bits", np.ones((4, 4), bool)),
     (FeatureGrid, "values", np.ones((2, 2, 3))), (GridMask, "active", np.ones((4, 4), bool)),
     (lambda a: EncoderParams(2, a), "projection", np.ones((4, 3))),
     (lambda a: MaskTokenSet(a, np.array([[0, 0], [0, 1]])), "tokens", np.ones((2, 3))),
     (lambda a: TokenSequence(np.full(2, -1), a, parse_layout_header("image:2")), "injected", np.ones((2, 3)))],
    ids=["image", "mask", "grid", "gridmask", "encoder", "tokenset", "sequence"],
)
def test_a_write_to_the_callers_array_does_not_reach_the_frozen_one(build, name, arr):
    frozen = getattr(build(arr), name)
    before = frozen.copy()
    arr[0] = 0
    assert np.array_equal(frozen, before)
    assert not frozen.flags.writeable


def test_a_read_only_array_is_frozen_without_a_copy():
    """The loaders flag their fresh arrays read-only so that they are not copied."""
    arr = np.ones((2, 2))
    arr.flags.writeable = False
    assert RasterImage(arr).data is arr


@pytest.mark.parametrize("build, name, dtype", [(RasterImage, "data", float), (BinaryMask, "bits", bool)],
                         ids=["image", "mask"])
def test_a_read_only_view_of_a_writable_array_is_copied(build, name, dtype):
    arr = np.ones((4, 4), dtype)
    view = arr.view()
    view.flags.writeable = False
    frozen = getattr(build(view), name)
    arr[0, 0] = 0
    assert frozen[0, 0] == 1 and not np.shares_memory(frozen, arr)


def _spy(monkeypatch, module, cls):
    """Record each array ``module`` passes to ``cls``."""
    seen = []
    monkeypatch.setattr(module, cls.__name__, lambda arr: seen.append(arr) or cls(arr))
    return seen


def test_the_loaders_arrays_are_frozen_without_a_copy(tmp_path, monkeypatch):
    write_pgm(RasterImage(np.arange(12.0).reshape(3, 4)), tmp_path / "img.pgm")
    seen = _spy(monkeypatch, maskio, RasterImage)
    assert read_pgm(tmp_path / "img.pgm").data is seen[0]
    seen = _spy(monkeypatch, maskio, BinaryMask)
    assert mask_from_rle({"size": [3, 4], "counts": [5, 7]}).bits is seen[0]
    seen = _spy(monkeypatch, region, RasterImage)
    assert region.resize_image(RasterImage(np.ones((4, 4))), 3, 5).data is seen[0]


def test_records_jsonl_round_trip(tmp_path, rng):
    records = [
        MaskRecord(mask=random_mask(rng, 6, 4), image_id=f"im{j}", label=None if j % 2 else f"c{j}")
        for j in range(8)
    ]
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    back = read_records(path)
    assert back == records
    # one json object per line
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 8
    assert all(set(json.loads(ln)) == {"image_id", "label", "rle"} for ln in lines)
    # blank lines, whitespace-only ones too, are skipped
    path.write_text("\n" + "\n \t\n".join(lines) + "\n\n")
    assert read_records(path) == records


def test_records_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id":"a","label":null,"rle":{"size":[1,2],"counts":[3]}}\n')
    with pytest.raises(ValueError, match="line 1"):
        read_records(path)


def _random_counts(rng, h, w) -> list[int]:
    """Random runs of an h x w raster, with zero-length runs inserted
    anywhere: first (so the first pixel is true), between runs and last."""
    cuts = np.sort(rng.integers(0, h * w + 1, size=int(rng.integers(0, 8))))
    counts = np.diff(np.concatenate(([0], cuts, [h * w]))).tolist()
    for _ in range(int(rng.integers(0, 4))):
        counts.insert(int(rng.integers(0, len(counts) + 1)), 0)
    return counts


def test_a_record_keeps_its_runs_and_decodes_them_as_mask_from_rle(tmp_path, rng):
    rles = []
    while len(rles) < 300:
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        counts = _random_counts(rng, h, w)
        if any(counts[1::2]):  # an empty mask is an error, tested below
            rles.append({"size": [h, w], "counts": counts})
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps({"image_id": "im", "rle": rle}) + "\n" for rle in rles))
    records = read_records(path)
    for rle, record in zip(rles, records, strict=True):
        mask, decoded = record.mask, mask_from_rle(rle)
        assert isinstance(mask, RunLengthMask) and np.array_equal(mask.counts, rle["counts"])
        assert (mask.height, mask.width, mask.area()) == (decoded.height, decoded.width, decoded.area())
        assert np.array_equal(mask.bits, decoded.bits) and mask == decoded and decoded == mask
        assert mask_to_rle(mask) == mask_to_rle(decoded)
        assert not mask.counts.flags.writeable and not mask.bits.flags.writeable
        assert set(vars(mask)) == {"height", "width", "counts"}  # no raster is kept
    kinds = [rle["counts"] for rle in rles]
    assert any(c[0] == 0 for c in kinds)  # the first pixel is true
    assert any(0 in c[1:-1] for c in kinds) and any(c[-1] == 0 for c in kinds)


@pytest.mark.parametrize("counts", [[12], [0, 0, 12], [5, 0, 7], [0, 0, 4, 0, 8, 0]],
                         ids=["one-false-run", "zero-leading-pair", "zero-interior", "zero-trailing"])
def test_runs_with_no_true_pixel_are_rejected_when_read(counts, tmp_path):
    good = {"image_id": "a", "rle": {"size": [3, 4], "counts": [0, 12]}}
    bad = {"image_id": "a", "rle": {"size": [3, 4], "counts": counts}}
    (tmp_path / "empty.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError) as exc:
        read_records(tmp_path / "empty.jsonl")
    assert str(exc.value) == "record error at line 2: mask has no true bits"
    with pytest.raises(ValueError, match="^mask has no true bits$"):
        mask_from_rle(bad["rle"])
