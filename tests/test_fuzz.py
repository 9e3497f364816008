"""Seeded mutation fuzz of every file and string the CLI reads.

Each reader's fixtures are mutated by byte flips, truncation, insertion,
duplication and splicing (stdlib ``random`` only), and each mutant goes
through ``cli.main``.  The exit-code contract: a run exits 0, or exits 2
with one line on stderr; exit 3 would mean a reader let bad input through
to an invariant.
"""

import json
import random

import numpy as np
import pytest

from regionrec import cli, decoder
from regionrec.maskio import RasterImage, RunLengthMask, mask_to_rle

from conftest import save_decoder_params, write_pgm

MUTANTS = 200


def _mutate(rnd: random.Random, seeds: list[bytes]) -> bytes:
    """One to three edits of a seed; splicing joins it to another seed's tail."""
    out = bytearray(rnd.choice(seeds))
    for _ in range(rnd.randint(1, 3)):
        op, i = rnd.randrange(5), rnd.randrange(len(out) + 1)
        if op == 0 and out:  # flip bits of one byte
            out[min(i, len(out) - 1)] ^= rnd.randrange(1, 256)
        elif op == 1:  # truncate
            del out[i:]
        elif op == 2:  # insert random bytes
            out[i:i] = bytes(rnd.randrange(256) for _ in range(rnd.randint(1, 4)))
        elif op == 3:  # duplicate a run
            out[i:i] = out[i : rnd.randint(i, len(out))]
        else:  # splice
            other = rnd.choice(seeds)
            out[i:] = other[rnd.randrange(len(other) + 1) :]
    return bytes(out)


def _lines(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Per reader, its seed inputs; and the valid files the other flags read.

    An 8x8 image, one mask to decode, ``--enc-dim 1`` and a one-layer
    decoder of dim 8 keep a run that reaches decoding in milliseconds."""
    d = tmp_path_factory.mktemp("fuzz")
    image = RasterImage(np.arange(64).reshape(8, 8) * 4.0)
    write_pgm(image, d / "img.pgm")
    p2 = "P2\n# ascii\n8 8\n255\n" + "\n".join(" ".join(str(int(v)) for v in row) for row in image.data) + "\n"
    square, bar = np.zeros((8, 8), bool), np.zeros((8, 8), bool)
    square[2:5, 1:4] = True
    bar[6, :] = True
    records = [{"image_id": "img", "label": "cat", "rle": mask_to_rle(RunLengthMask.from_bits(square))},
               {"image_id": "img", "label": None, "rle": mask_to_rle(RunLengthMask.from_bits(bar))}]
    (d / "masks.jsonl").write_bytes(_lines(records))
    (d / "one.jsonl").write_bytes(_lines(records[:1]))
    params = decoder.DecoderParams.seeded(0, decoder.make_vocab(["cat"]), dim=8, layers=1, enc_dim=1, max_len=300)
    save_decoder_params(params, d / "dec.bin", d / "vocab.json")
    preds = [{"image_id": "img", "mask_index": 0, "pred": "cat", "gold": "cat"},
             {"image_id": "img", "mask_index": 1, "pred": "red-fox", "gold": "fox"}]
    (d / "pred.jsonl").write_bytes(_lines(preds))
    oracle = [{"image_id": "img", "label": "cat", "answer": "no"}, {"image_id": "img", "label": "dog", "answer": "Yes."}]
    record_seeds = [(d / "masks.jsonl").read_bytes(), (d / "one.jsonl").read_bytes()]
    return d, {
        "pgm": [(d / "img.pgm").read_bytes(), p2.encode()],
        "records-tokenize": record_seeds,
        "records-pipeline": record_seeds,
        "dec0": [(d / "dec.bin").read_bytes()],
        "vocab": [(d / "vocab.json").read_bytes()],
        # "-image:1" is read by argparse as an option, so its usage errors are fuzzed too
        "layout": [cli.FIG4_PRESET.encode(), b"image:3 text:2 mask0:1 mask1:2 sep:1 out0:2 out1:1", b"-image:1"],
        "predictions": [(d / "pred.jsonl").read_bytes()],
        "eval-vocab": [b"dog\n  Cat \n\nred fox\n"],
        "oracle": [json.dumps(oracle).encode()],
    }


def _argv(d, case, path, text):
    """The command that reads the mutant of ``case``: a file at ``path``, or
    ``text`` for the layout header."""
    image, masks = ["--image", str(d / "img.pgm")], ["--masks", str(d / "masks.jsonl")]
    tokenize = ["tokenize", "--out-dir", str(d / "tok"), "--enc-dim", "1"]
    decode = ["decode", *image, "--masks", str(d / "one.jsonl"), "--enc-dim", "1", "--max-label-len", "1"]
    return {
        "pgm": [*tokenize, "--image", path, *masks],
        "records-tokenize": [*tokenize, *image, "--masks", path],
        "records-pipeline": ["pipeline", "--records", path, "--head-threshold", "1"],
        "dec0": [*decode, "--params", path, "--vocab", str(d / "vocab.json")],
        "vocab": [*decode, "--params", str(d / "dec.bin"), "--vocab", path],
        "layout": ["maskviz", "--layout", text],  # a text starting with "-" is argparse's to reject
        "predictions": ["eval", "--pred", path],
        "eval-vocab": ["eval", "--pred", str(d / "pred.jsonl"), "--vocab-file", path],
        "oracle": ["pipeline", "--records", str(d / "masks.jsonl"), "--head-threshold", "1", "--oracle", f"file:{path}"],
    }[case]


CASES = ["pgm", "records-tokenize", "records-pipeline", "dec0", "vocab", "layout", "predictions", "eval-vocab",
         "oracle"]


@pytest.mark.parametrize("case", CASES)
def test_every_mutant_exits_0_or_2_with_one_line(case, seeds, capsys):
    d, corpus = seeds
    rnd = random.Random(CASES.index(case))
    path = d / f"mutant-{case}"
    bad = []
    for i in range(MUTANTS):
        data = _mutate(rnd, corpus[case])
        path.write_bytes(data)
        code = cli.main(_argv(d, case, str(path), data.decode("utf-8", "surrogateescape")))
        err = capsys.readouterr().err
        if not (code == 0 and not err or code == 2 and err.startswith("error:") and err.count("\n") == 1):
            bad.append((i, code, err[:200], data[:120]))
    assert not bad, f"{len(bad)} of {MUTANTS} mutants broke the contract; first: {bad[:3]}"
