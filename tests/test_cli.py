"""Command line: its options (flags are the only way to set a value), exit
codes per subcommand, ``--pretty`` placement, the pinned outputs of every
subcommand and the rejected inputs."""

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regionrec import cli, decoder, harness, prompt
from regionrec.attnmask import canonical_layout
from regionrec.encoder import EncoderParams
from regionrec.maskio import (
    MAX_RLE_PIXELS, MaskRecord, RasterImage, RunLengthMask, mask_from_rle, mask_to_rle, write_records,
)
from regionrec.metrics import TrigramHashProvider
from regionrec.region import resize_image

from conftest import save_decoder_params, write_pgm


def run(argv) -> int:
    """Exit code of ``regionrec argv``; ``--help`` exits through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def files(tmp_path):
    """A 32x32 image, two labelled masks on it, and good and bad predictions."""
    rng = np.random.default_rng(5)
    write_pgm(RasterImage(rng.random((32, 32)) * 255), tmp_path / "img.pgm")
    square = np.zeros((32, 32), bool)
    square[4:12, 6:14] = True
    band = np.zeros((32, 32), bool)
    band[20:26, :] = True
    write_records(
        [MaskRecord(RunLengthMask.from_bits(square), "img", "cat"),
         MaskRecord(RunLengthMask.from_bits(band), "img", "dog")],
        tmp_path / "masks.jsonl",
    )
    preds = [{"image_id": "img", "mask_index": 0, "pred": "cat", "gold": "cat"},
             {"image_id": "img", "mask_index": 1, "pred": "puppy", "gold": "dog"}]
    (tmp_path / "pred.jsonl").write_text("".join(json.dumps(p) + "\n" for p in preds))
    (tmp_path / "bad.jsonl").write_text("{not json\n")
    return tmp_path


def _subcommand_cases(d) -> dict:
    """Per subcommand: a valid argv, and one with a single bad input."""
    image, masks = ["--image", str(d / "img.pgm")], ["--masks", str(d / "masks.jsonl")]
    return {
        "tokenize": (["tokenize", *image, *masks, "--out-dir", str(d / "tok")],
                     ["tokenize", "--image", str(d / "missing.pgm"), *masks, "--out-dir", str(d / "tok")]),
        "maskviz": (["maskviz", "--layout", "image:1 mask0:1 out0:1"],
                    ["maskviz", "--layout", "image:1 blob:1"]),
        "decode": (["decode", *image, *masks, "--max-label-len", "2"],
                   ["decode", *image, *masks, "--max-label-len", "0"]),
        "eval": (["eval", "--pred", str(d / "pred.jsonl")], ["eval", "--pred", str(d / "bad.jsonl")]),
        "bench": (["bench", "--k-values", "1", "--repeats", "0"], ["bench", "--k-values", "1,x"]),
        "pipeline": (["pipeline", "--records", str(d / "masks.jsonl")],
                     ["pipeline", "--records", str(d / "masks.jsonl"), "--oracle", "ask-someone"]),
    }


def _small_bench_decoder(monkeypatch):
    """A small decoder in place of the bench decoder keeps a bench run cheap."""
    monkeypatch.setattr(
        cli, "bench_decoder_params",
        lambda seed, enc_dim: decoder.DecoderParams.seeded(seed, decoder.make_vocab([]), enc_dim=enc_dim),
    )


# every option string per parser; adding or dropping a flag edits this table
_OPTIONS = {
    "regionrec": "--pretty --seed",
    "tokenize": "--enc-dim --image --masks --out-dir --pretty --scale --text-len",
    "maskviz": "--layout --pretty --variant",
    "decode": "--enc-dim --image --masks --max-label-len --params --pretty --scale --text --variant --vocab",
    "eval": "--pred --pretty --provider-dim --vocab-file",
    "bench": "--enc-dim --k-values --pretty --repeats --text-len",
    "pipeline": "--head-threshold --min-ratio --oracle --out-records --pretty --records",
}


def test_the_option_strings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {"regionrec": parser, **sub.choices}
    got = {name: " ".join(sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")))
           for name, p in parsers.items()}
    assert got == _OPTIONS


@pytest.mark.parametrize("command", ["tokenize", "maskviz", "decode", "eval", "bench", "pipeline"])
def test_exit_codes_per_subcommand(command, files, monkeypatch, capsys):
    _small_bench_decoder(monkeypatch)
    good, bad = _subcommand_cases(files)[command]
    assert run(good) == 0
    capsys.readouterr()
    assert run(bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_is_an_unknown_option(tmp_path, capsys):
    (tmp_path / "x.cfg").write_text("variant = causal\n")
    assert run(["--config", str(tmp_path / "x.cfg"), "maskviz"]) == 2
    assert run(["maskviz", "--config", str(tmp_path / "x.cfg")]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "unrecognized arguments: --config" in err


@pytest.mark.parametrize("argv", [["maskviz", "--layout", "-imag"], ["decode", "--image", "x"]],
                         ids=["option-as-value", "missing-required"])
def test_a_usage_error_exits_2_with_one_line(argv, capsys):
    assert run(argv) == 2
    _assert_one_line_input_error(capsys, "argument")


@pytest.mark.parametrize(
    "layout, words",
    [("image:0", "image segment length must be >= 1"), ("image:2 mask0:0 out0:1", "mask segment length too small"),
     ("image:1 text:1 text:1 mask0:1 out0:1", "layout allows at most one text segment")],
    ids=["empty-image", "empty-mask", "two-texts"],
)
def test_maskviz_rejects_a_bad_segment_with_one_line(layout, words, capsys):
    assert run(["maskviz", f"--layout={layout}"]) == 2
    _assert_one_line_input_error(capsys, words)


def test_the_module_entry_point_exits_as_main_returns(capsys):
    """``python -m regionrec.cli`` prints what ``main`` prints and exits with its code."""
    assert run(["maskviz"]) == 0
    want = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "regionrec.cli", *argv], capture_output=True, text=True, env=env,
                              timeout=60)

    done = module("maskviz")
    assert done.returncode == 0 and done.stdout == want
    done = module("maskviz", "--layout", "-imag")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


def test_help_exits_0(capsys):
    assert run(["decode", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: regionrec decode")


def test_wow_seed_is_not_read(files, monkeypatch, capsys):
    """Outputs under ``WOW_SEED=5`` are those of the default seed 0."""
    image, masks = ["--image", str(files / "img.pgm")], ["--masks", str(files / "masks.jsonl")]
    outputs = []
    for env, out_dir in ((None, "seed0"), ("5", "env5")):
        if env is not None:
            monkeypatch.setenv("WOW_SEED", env)
        assert run(["tokenize", *image, *masks, "--out-dir", str(files / out_dir)]) == 0
        assert run(["decode", *image, *masks]) == 0
        blobs = {p.name: p.read_bytes() for p in (files / out_dir).iterdir()}
        outputs.append((capsys.readouterr().out, blobs))
    assert outputs[0] == outputs[1]


def test_pretty_is_accepted_after_the_subcommand(files, capsys):
    pred = ["--pred", str(files / "pred.jsonl")]
    assert run(["eval", *pred]) == 0
    plain = capsys.readouterr().out
    assert run(["eval", *pred, "--pretty"]) == 0
    after = capsys.readouterr().out
    assert run(["--pretty", "eval", *pred]) == 0
    before = capsys.readouterr().out
    assert after == before == json.dumps(json.loads(plain), indent=2, sort_keys=True) + "\n"
    assert run(["maskviz", "--pretty"]) == 0


@pytest.mark.parametrize(
    "variant, digest",
    [("cascade", "9c6586134494aa4d"), ("region", "cbb870b5d27cc19d"),
     ("output", "5222100411055580"), ("causal", "2a65ef2466568f7d")],
)
def test_maskviz_dump_is_pinned(variant, digest, capsys):
    assert run(["maskviz", "--variant", variant]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def test_repeats_0_runs_no_timed_pass(monkeypatch, capsys):
    _small_bench_decoder(monkeypatch)
    calls = []
    real_forward = harness.forward
    monkeypatch.setattr(harness, "forward", lambda *a: calls.append(1) or real_forward(*a))
    untimed = {"k", "total_flops", "encoder_share", "decoder_share", "comparator_flops"}
    assert run(["bench", "--k-values", "1,2", "--repeats", "1"]) == 0
    assert len(calls) == 2
    assert [set(row) for row in json.loads(capsys.readouterr().out)["rows"]] == [untimed | {"wall_time_ms"}] * 2
    calls.clear()
    assert run(["bench", "--k-values", "1,2", "--repeats", "0"]) == 0
    assert calls == []
    assert [set(row) for row in json.loads(capsys.readouterr().out)["rows"]] == [untimed] * 2


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_bench_flops_output_is_pinned(monkeypatch, capsys):
    """stdout of an untimed bench run, recorded when the run took
    ``--flops-only`` and the cost model had its own copy of the weights' sizes."""
    _small_bench_decoder(monkeypatch)
    assert run(["bench", "--k-values", "1,2,4,8", "--repeats", "0"]) == 0
    assert _digest(capsys.readouterr().out.encode()) == "a3f6832d7271f027"


def _pipeline_files(d):
    """Eight records on 32x32 rasters and an oracle table.

    One 1-pixel mask falls under the area ratio; cat (3 left) and dog (2)
    are head categories at threshold 2.  Stage 2 meets a "no", a raising
    oracle, an unparseable answer, a "Yes." prefix and a missing entry.
    """
    def square(side):
        bits = np.zeros((32, 32), bool)
        bits[:side, :side] = True
        return RunLengthMask.from_bits(bits)

    records = [MaskRecord(square(8), "a", "cat"), MaskRecord(square(6), "b", "cat"),
               MaskRecord(square(5), "c", "cat"), MaskRecord(square(7), "d", "dog"),
               MaskRecord(square(4), "e", "dog"), MaskRecord(square(9), "a", "bird"),
               MaskRecord(square(3), "b", None), MaskRecord(square(1), "a", "cat")]
    write_records(records, d / "records.jsonl")
    answers = [{"image_id": "a", "label": "cat", "answer": "no"},
               {"image_id": "b", "label": "cat", "answer": "error"},
               {"image_id": "c", "label": "cat", "answer": "maybe"},
               {"image_id": "d", "label": "dog", "answer": "Yes."}]
    (d / "answers.json").write_text(json.dumps(answers))
    return ["pipeline", "--records", str(d / "records.jsonl"), "--head-threshold", "2"]


@pytest.mark.parametrize(
    "oracle, out_digest, records_digest",
    [("always-yes", "13537e51903fe1d3", "5ecdbf089ee6418c"), ("file", "309489e16a813601", "44e6aae76b826f7a")],
)
def test_pipeline_output_is_pinned(oracle, out_digest, records_digest, tmp_path, capsys):
    """stdout and ``--out-records``, recorded before the area-ratio filter
    was folded into the pipeline."""
    argv = _pipeline_files(tmp_path) + ["--out-records", str(tmp_path / "kept.jsonl")]
    if oracle == "file":
        argv += ["--oracle", f"file:{tmp_path / 'answers.json'}"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert _digest(out.encode()) == out_digest
    assert _digest((tmp_path / "kept.jsonl").read_bytes()) == records_digest


def test_pipeline_writes_the_canonical_runs_of_non_canonical_input(tmp_path, capsys):
    """``--out-records`` re-encodes each kept mask from its bits, so zero-length
    runs in the input are not copied to the output."""
    rles = [{"size": [3, 4], "counts": [2, 0, 3, 4, 3, 0]},  # zero-length interior and trailing runs
            {"size": [3, 4], "counts": [0, 0, 5, 7]},
            {"size": [3, 4], "counts": [0, 5, 0, 0, 7]}]  # the first pixel is true
    (tmp_path / "odd.jsonl").write_text("".join(json.dumps({"image_id": "a", "label": None, "rle": rle}) + "\n"
                                                for rle in rles))
    out = tmp_path / "kept.jsonl"
    argv = ["pipeline", "--records", str(tmp_path / "odd.jsonl"), "--min-ratio", "0", "--out-records", str(out)]
    assert run(argv) == 0
    written = [json.loads(line)["rle"] for line in out.read_text().splitlines()]
    assert written == [mask_to_rle(mask_from_rle(rle)) for rle in rles]
    assert [rle["counts"] for rle in written] == [[5, 4, 3], [5, 7], [0, 5, 7]]


def test_eval_output_is_pinned(tmp_path, capsys):
    """stdout with no vocabulary, with ``--vocab-file`` and with a 7-bucket
    provider.  At dim 256 "zebra" shares no trigram bucket with any entry,
    so every cosine is 0 and the first entry, "dog", wins the tie."""
    preds = [("Cat", " cat "), ("red-fox", "red_fox"), ("red fox", "Fox"), ("zebra", "dog"), ("zebra", "cat"),
             ("bird", "Bird ")]
    (tmp_path / "pred.jsonl").write_text("".join(
        json.dumps({"image_id": "img", "mask_index": i, "pred": p, "gold": g}) + "\n" for i, (p, g) in enumerate(preds)))
    (tmp_path / "vocab.txt").write_text("dog\n  Cat \n\nred fox\nbird\n")
    pred, vocab = ["eval", "--pred", str(tmp_path / "pred.jsonl")], ["--vocab-file", str(tmp_path / "vocab.txt")]
    digests = []
    for extra in ([], vocab, [*vocab, "--provider-dim", "7"]):
        assert run(pred + extra) == 0
        digests.append(_digest(capsys.readouterr().out.encode()))
    assert digests == ["2054923f36275fb7", "18cf4744c43745ad", "45e95b76f40414ad"]


def test_tokenize_total_sequence_is_the_layout_length(files, capsys):
    argv = ["tokenize", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
            "--out-dir", str(files / "tok")]
    assert run(argv + ["--text-len", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    layout = canonical_layout(256, 4, out["token_counts"], prompt.OUTPUT_SLOTS)
    assert out == {"image_tokens": 256, "masks": 2, "token_counts": [64, 16], "total_sequence": layout.n}
    assert layout.n == 358
    assert run(argv + ["--text-len", "-1"]) == 2
    assert "text length" in capsys.readouterr().err


def test_tokenize_output_is_pinned(files, capsys):
    """stdout and every file written to ``--out-dir``."""
    out_dir = files / "tok"
    assert run(["tokenize", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                "--out-dir", str(out_dir)]) == 0
    assert _digest(capsys.readouterr().out.encode()) == "2e1e6bb3158d1925"
    assert {p.name: _digest(p.read_bytes()) for p in out_dir.iterdir()} == {
        "mask_000.f32": "1b227ff772b72140", "mask_000.json": "ca646291bd92d190",
        "mask_001.f32": "b306db84bfc81f33", "mask_001.json": "b9bfb8fcc879fb0b",
    }


def test_decode_rejects_half_a_weights_pair(files, capsys):
    argv = ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl")]
    assert run(argv + ["--params", str(files / "nope.bin")]) == 2
    assert run(argv + ["--vocab", str(files / "nope.json")]) == 2
    assert capsys.readouterr().err.count("--params and --vocab") == 2


def test_decoder_params_file_round_trip(files, monkeypatch, capsys):
    """The seeded decoder, saved as DEC0 and read back by ``decode --params
    --vocab``, decodes to byte-identical output."""
    argv = ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
            "--max-label-len", "2"]
    used = []
    real_decode = decoder.decode_objects
    monkeypatch.setattr(decoder, "decode_objects", lambda batch, text_ids, params, **kw: used.append(params)
                        or real_decode(batch, text_ids, params, **kw))
    assert run(argv) == 0
    seeded = capsys.readouterr().out
    save_decoder_params(used[0], files / "dec.bin", files / "vocab.json")
    assert _digest((files / "dec.bin").read_bytes()) == "53779dccfe354d16"
    assert run(argv + ["--params", str(files / "dec.bin"), "--vocab", str(files / "vocab.json")]) == 0
    assert capsys.readouterr().out == seeded


@pytest.mark.parametrize(
    "variant, digest",
    [("cascade", "fb2b539d3bf08126"), ("output", "40e9ecf2bb24efe4"),
     ("region", "bd63eebb039662f5"), ("causal", "7e9f6f63c58b1f76")],
)
def test_decode_output_is_pinned(variant, digest, files, capsys):
    """Objects decode one after another; under cascade and output no chunk
    sees another, so those two would not change under any other order."""
    assert run(["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                "--variant", variant]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


_IMAGE = RasterImage(np.zeros((4, 4)))
_PARAMS = decoder.DecoderParams.seeded(0, decoder.make_vocab([]), dim=8, layers=1, max_len=4)


def _small_dec0(directory, edit):
    """A seeded decoder saved as DEC0, with ``edit`` applied to the blob bytes."""
    save_decoder_params(_PARAMS, directory / "dec.bin", directory / "vocab.json")
    blob = (directory / "dec.bin").read_bytes()
    (directory / "dec.bin").write_bytes(edit(blob))
    return ["--params", str(directory / "dec.bin"), "--vocab", str(directory / "vocab.json")]


@pytest.mark.parametrize(
    "edit", [lambda b: b[:-4], lambda b: b + bytes(4), lambda b: b[:10]], ids=["short", "long", "header-cut"]
)
def test_decoder_blob_of_the_wrong_size_exits_2(edit, files, capsys):
    argv = ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl")]
    assert run(argv + _small_dec0(files, edit)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "size mismatch" in err and err.count("\n") == 1


_WORD_PARAMS = decoder.DecoderParams.seeded(0, decoder.make_vocab(["cat"]), dim=8, layers=1)
_SPECIALS_JSON = '"<pad>", "<start>", "<sep>", "<end>"'


@pytest.mark.parametrize(
    "vocab, edit, word",
    [(f"[{_SPECIALS_JSON}, 5]", None, "distinct strings"),
     (f'[{_SPECIALS_JSON}, "<end>"]', None, "distinct strings"),
     ('{"<pad>": 0, "<start>": 1, "<sep>": 2, "<end>": 3, "cat": 4}', None, "must hold a JSON array"),
     (None, lambda b: b[:-4] + struct.pack("<f", float("nan")), "non-finite weight"),
     (f'[{_SPECIALS_JSON}, "a b"]', None, "not one word"),
     (f'[{_SPECIALS_JSON}, ""]', None, "not one word"),
     (f'[{_SPECIALS_JSON}, "\\t"]', None, "not one word")],
    ids=["non-string", "duplicate", "object", "nan-weight", "two-words", "empty", "whitespace"],
)
def test_a_bad_vocab_or_weight_exits_2(vocab, edit, word, files, capsys):
    """Each vocabulary has the blob's size, so only the vocabulary or the
    weight rule can reject the pair."""
    save_decoder_params(_WORD_PARAMS, files / "dec.bin", files / "vocab.json")
    if vocab is not None:
        (files / "vocab.json").write_text(vocab)
    if edit is not None:
        (files / "dec.bin").write_bytes(edit((files / "dec.bin").read_bytes()))
    argv = ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"), "--max-label-len", "2",
            "--params", str(files / "dec.bin"), "--vocab", str(files / "vocab.json")]
    assert run(argv) == 2
    _assert_one_line_input_error(capsys, word)


@pytest.mark.parametrize("command", ["tokenize", "decode", "bench"])
def test_a_seed_outside_64_bits_exits_2(command, files, monkeypatch, capsys):
    """``--seed -1`` would otherwise draw the weights of seed 2**64 - 1."""
    _small_bench_decoder(monkeypatch)
    good, _ = _subcommand_cases(files)[command]
    assert run(["--seed", "-1", *good]) == 2
    _assert_one_line_input_error(capsys, "seed")


@pytest.mark.parametrize("flags", [0, 2, 3])
def test_decoder_blob_flags_other_than_1_exit_2(flags, files, capsys):
    """Positions are always absolute: DEC0 flags 1, the only layout."""
    argv = ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl")]
    assert run(argv + _small_dec0(files, lambda b: b[:20] + struct.pack("<I", flags) + b[24:])) == 2
    _assert_one_line_input_error(capsys, f"flags {flags}")


def test_a_bad_blob_is_reported_before_the_image_is_read(files, capsys):
    argv = ["decode", "--image", str(files / "missing.pgm"), "--masks", str(files / "masks.jsonl")]
    assert run(argv + _small_dec0(files, lambda b: b"DECX" + b[4:])) == 2
    _assert_one_line_input_error(capsys, "bad magic b'DECX'")


def test_capacity_error_names_limit(files, capsys):
    """The mask cap is checked on the records, before any encoding."""
    image, masks = ["--image", str(files / "img.pgm")], ["--masks", str(files / "many.jsonl")]
    many = [MaskRecord(RunLengthMask.from_bits(np.eye(32, dtype=bool)), "img", None)] * (prompt.MAX_MASKS + 1)
    write_records(many, files / "many.jsonl")
    assert run(["tokenize", *image, *masks, "--out-dir", str(files / "tok")]) == 2
    _assert_one_line_input_error(capsys, "capacity error", "31 masks", "max_masks=30")
    assert not (files / "tok").exists()
    assert run(["decode", *image, *masks]) == 2
    _assert_one_line_input_error(capsys, "capacity error", "31 masks", "max_masks=30")


@pytest.mark.parametrize(
    "build",
    [lambda: TrigramHashProvider(dim=0), lambda: resize_image(_IMAGE, 0, 4), lambda: resize_image(_IMAGE, 4, 0),
     lambda: EncoderParams.seeded(0, dim=0), lambda: dataclasses.replace(_PARAMS, heads=0),
     lambda: dataclasses.replace(_PARAMS, embed=_PARAMS.embed[:, :0]),
     lambda: dataclasses.replace(_PARAMS, adapter=_PARAMS.adapter[:0]),
     lambda: decoder.DecoderParams.seeded(0, decoder.make_vocab([]), enc_dim=0)],
    ids=["provider-dim", "resize-width", "resize-height", "encoder-dim", "decoder-heads", "decoder-dim",
         "decoder-enc-dim", "seeded-decoder-enc-dim"],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_zero_sizes_are_rejected_where_they_are_built(build):
    with pytest.raises(ValueError, match=">= 1"):
        build()


@pytest.mark.parametrize("case", ["eval-provider-dim", "tokenize-enc-dim", "decode-enc-dim", "bench-enc-dim",
                                  "decode-zero-heads"])
def test_zero_sizes_exit_2(case, files, capsys):
    image, masks = ["--image", str(files / "img.pgm")], ["--masks", str(files / "masks.jsonl")]
    argv = {
        "eval-provider-dim": ["eval", "--pred", str(files / "pred.jsonl"), "--provider-dim", "0"],
        "tokenize-enc-dim": ["tokenize", *image, *masks, "--out-dir", str(files / "tok"), "--enc-dim", "0"],
        "decode-enc-dim": ["decode", *image, *masks, "--enc-dim", "0"],
        "bench-enc-dim": ["bench", "--k-values", "1", "--repeats", "0", "--enc-dim", "0"],
        "decode-zero-heads": ["decode", *image, *masks, *_small_dec0(files, lambda b: b[:6] + bytes(1) + b[7:])],
    }[case]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ">= 1" in err and err.count("\n") == 1


def _assert_one_line_input_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(word in err for word in words), err


@pytest.mark.parametrize("k_values", [",", "0", "4,1"])
def test_bad_k_values_exit_2_and_name_k_values(k_values, capsys):
    assert run(["bench", "--k-values", k_values, "--repeats", "0"]) == 2
    _assert_one_line_input_error(capsys, "k_values")


def test_flops_only_is_gone(capsys):
    assert run(["bench", "--k-values", "1", "--flops-only"]) == 2
    assert "unrecognized arguments: --flops-only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, scale", [("tokenize", "inf"), ("tokenize", "nan"), ("decode", "inf")]
)
def test_a_scale_that_is_not_finite_exits_2(command, scale, files, capsys):
    argv = [command, "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"), "--scale", scale]
    if command == "tokenize":
        argv += ["--out-dir", str(files / "tok")]
    assert run(argv) == 2
    _assert_one_line_input_error(capsys, "scale")


def test_a_pixel_above_maxval_exits_2(files, capsys):
    (files / "loud.pgm").write_bytes(b"P5\n32 32\n15\n" + bytes([200]) * (32 * 32))
    assert run(["tokenize", "--image", str(files / "loud.pgm"), "--masks", str(files / "masks.jsonl"),
                "--out-dir", str(files / "tok")]) == 2
    _assert_one_line_input_error(capsys, "outside 0..maxval")


def test_a_records_line_that_is_not_an_object_exits_2(files, capsys):
    (files / "list.jsonl").write_text((files / "masks.jsonl").read_text() + "[1]\n")
    assert run(["pipeline", "--records", str(files / "list.jsonl")]) == 2
    _assert_one_line_input_error(capsys, "line 3", "JSON object")


@pytest.mark.parametrize("field, value, words", [("label", ["cat"], "label must be a string"),
                                                  ("label", 5, "label must be a string"),
                                                  ("image_id", 7, "image_id must be a non-empty string")])
def test_a_record_whose_label_or_image_id_is_not_a_string_exits_2(field, value, words, files, capsys):
    """A list label used to reach the filter's category count and exit 3."""
    row = dict(json.loads((files / "masks.jsonl").read_text().splitlines()[0]), **{field: value})
    (files / "odd.jsonl").write_text(json.dumps(row) + "\n")
    assert run(["pipeline", "--records", str(files / "odd.jsonl"), "--head-threshold", "1"]) == 2
    _assert_one_line_input_error(capsys, "line 1", words)


@pytest.mark.parametrize("line", ['[1]', '{"pred": 5, "gold": "cat"}', '{"pred": "cat", "gold": null}'])
def test_a_bad_prediction_line_exits_2(line, files, capsys):
    (files / "odd.jsonl").write_text(line + "\n")
    assert run(["eval", "--pred", str(files / "odd.jsonl")]) == 2
    _assert_one_line_input_error(capsys, "prediction error at line 1")


@pytest.mark.parametrize("pred, words", [("-", "pred label empty after normalization"), ("  ", "empty pred label")])
def test_a_bad_prediction_label_names_its_line(pred, words, files, capsys):
    good = {"image_id": "img", "mask_index": 0, "pred": "cat", "gold": "cat"}
    rows = [good, dict(good, mask_index=1, pred=pred)]
    (files / "odd.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert run(["eval", "--pred", str(files / "odd.jsonl")]) == 2
    _assert_one_line_input_error(capsys, "prediction error at line 2", words)


def test_an_oracle_file_that_is_not_a_list_of_objects_exits_2(files, capsys):
    for table in ({"a": 1}, [1], ["a"]):
        (files / "oracle.json").write_text(json.dumps(table))
        assert run(["pipeline", "--records", str(files / "masks.jsonl"), "--oracle", f"file:{files / 'oracle.json'}"]) == 2
        _assert_one_line_input_error(capsys, "oracle file")


@pytest.mark.parametrize(
    "row",
    [{"image_id": "a", "label": "cat", "answer": 5}, {"image_id": "a", "answer": "no"},
     {"label": "cat", "answer": "no"}, {"image_id": 1, "label": "cat", "answer": "no"}],
    ids=["answer-not-a-string", "no-label", "no-image-id", "image-id-not-a-string"],
)
def test_a_malformed_oracle_row_exits_2(row, files, capsys):
    (files / "oracle.json").write_text(json.dumps([{"image_id": "img", "label": "dog", "answer": "yes"}, row]))
    argv = ["pipeline", "--records", str(files / "masks.jsonl"), "--head-threshold", "1"]
    assert run(argv + ["--oracle", f"file:{files / 'oracle.json'}"]) == 2
    _assert_one_line_input_error(capsys, "oracle file", "row 2")


def test_an_empty_vocab_file_exits_2(files, capsys):
    (files / "vocab.txt").write_text("\n  \n")
    assert run(["eval", "--pred", str(files / "pred.jsonl"), "--vocab-file", str(files / "vocab.txt")]) == 2
    _assert_one_line_input_error(capsys, "vocab.txt")


@pytest.mark.parametrize(
    "rle",
    ['{"size": [1e400, 32], "counts": [1024]}', '{"size": [32.5, 32], "counts": [1024]}',
     '{"size": ["32", "32"], "counts": [1024]}', '{"size": [32, 32], "counts": [1023.5, 0.5]}',
     '{"size": [32, 32], "counts": [1000.5, 24]}', '{"size": [32, 32], "counts": [1023, true]}'],
    ids=["size-overflow", "size-float", "size-string", "counts-halves", "counts-float", "counts-bool"],
)
def test_an_rle_value_that_is_not_an_integer_exits_2(rle, files, capsys):
    (files / "odd.jsonl").write_text(f'{{"image_id": "img", "label": "cat", "rle": {rle}}}\n')
    assert run(["pipeline", "--records", str(files / "odd.jsonl")]) == 2
    _assert_one_line_input_error(capsys, "line 1", "integers")


@pytest.mark.parametrize(
    "size, counts",
    [([1 << 62, 4], [1 << 64]), ([MAX_RLE_PIXELS // 8192 + 1, 8192], [0, MAX_RLE_PIXELS + 8192]),
     ([-2, -2], [0, 4]), ([0, 5], [0])],
    ids=["int64-overflow", "one-row-over-the-cap", "negative", "zero-height"],
)
def test_an_rle_size_outside_the_pixel_cap_exits_2(size, counts, files, capsys):
    """The size is checked before anything of h*w pixels is allocated."""
    rle = json.dumps({"size": size, "counts": counts})
    (files / "huge.jsonl").write_text(f'{{"image_id": "img", "label": "cat", "rle": {rle}}}\n')
    assert run(["pipeline", "--records", str(files / "huge.jsonl")]) == 2
    _assert_one_line_input_error(capsys, "line 1", "rle size error", str(MAX_RLE_PIXELS))


@pytest.mark.parametrize("command", ["tokenize", "bench"])
def test_a_negative_text_len_exits_2(command, files, monkeypatch, capsys):
    _small_bench_decoder(monkeypatch)
    argv = {"tokenize": ["tokenize", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                         "--out-dir", str(files / "tok")],
            "bench": ["bench", "--k-values", "1", "--repeats", "0"]}[command]
    assert run(argv + ["--text-len", "-1"]) == 2
    _assert_one_line_input_error(capsys, "text length must be >= 0, got -1")


@pytest.mark.parametrize(
    "argv",
    [["decode", "--max-label-len", "1000000000000"], ["bench", "--k-values", "1", "--repeats", "0", "--text-len", "3000"],
     ["bench", "--k-values", "1", "--text-len", "1000000000000"],
     ["bench", "--k-values", "1", "--repeats", "0", "--text-len", "2040"]],
    ids=["decode-max-label-len", "bench-untimed", "bench-text-len", "bench-layout"],
)
def test_a_sequence_longer_than_max_len_exits_2(argv, files, monkeypatch, capsys):
    """The layout length is checked before anything of that length is
    allocated, and an untimed bench checks it as a timed one does."""
    _small_bench_decoder(monkeypatch)
    if argv[0] == "decode":
        argv = argv + ["--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl")]
    assert run(argv) == 2
    _assert_one_line_input_error(capsys, "exceeds max_len 2048")


def test_maskviz_rejects_a_layout_longer_than_the_decoder_takes(capsys):
    assert run(["maskviz", "--layout", "image:100000000 mask0:1 out0:1"]) == 2
    _assert_one_line_input_error(capsys, "100000002 positions", f"max_len={harness.BENCH_DEC_MAX_LEN}")
    # a length past int64 is still counted, not wrapped
    assert run(["maskviz", "--layout", "image:9223372036854775807 mask0:1 out0:1"]) == 2
    _assert_one_line_input_error(capsys, "9223372036854775809 positions", "exceeds max_len")
    assert run(["maskviz", "--layout", f"image:{harness.BENCH_DEC_MAX_LEN - 2} mask0:1 out0:1"]) == 0


@pytest.mark.parametrize(
    "command, flag",
    [("tokenize", "--image"), ("tokenize", "--masks"), ("decode", "--image"), ("decode", "--masks"),
     ("decode", "--params"), ("decode", "--vocab"), ("eval", "--pred"), ("eval", "--vocab-file"),
     ("pipeline", "--records"), ("pipeline", "--oracle"), ("pipeline", "--out-records")],
)
def test_a_directory_given_as_a_file_exits_2(command, flag, files, capsys):
    save_decoder_params(_WORD_PARAMS, files / "dec.bin", files / "vocab.json")
    argv = {
        "tokenize": ["tokenize", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                     "--out-dir", str(files / "tok")],
        "decode": ["decode", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                   "--params", str(files / "dec.bin"), "--vocab", str(files / "vocab.json")],
        "eval": ["eval", "--pred", str(files / "pred.jsonl"), "--vocab-file", str(files / "pred.jsonl")],
        "pipeline": ["pipeline", "--records", str(files / "masks.jsonl"), "--oracle", "always-yes",
                     "--out-records", str(files / "kept.jsonl")],
    }[command]
    i = argv.index(flag) + 1
    argv[i] = f"file:{files}" if flag == "--oracle" else str(files)
    assert run(argv) == 2
    _assert_one_line_input_error(capsys, "Is a directory")


def test_an_out_dir_that_is_a_file_exits_2(files, capsys):
    assert run(["tokenize", "--image", str(files / "img.pgm"), "--masks", str(files / "masks.jsonl"),
                "--out-dir", str(files / "img.pgm")]) == 2
    _assert_one_line_input_error(capsys, "File exists")


@pytest.mark.parametrize("exc", [IndexError("index 3 is out of bounds"), KeyError("k"), ZeroDivisionError("x")])
def test_an_internal_error_exits_3(exc, monkeypatch, capsys):
    """Only a ValueError or an OSError is an input error; a bug's IndexError
    or KeyError is not."""
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "build_cascade_mask", broken)
    assert run(["maskviz"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(exc).__name__}") and err.count("\n") == 1
