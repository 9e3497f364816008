"""Command line: exit codes per subcommand, config defaults, ``--pretty``
placement, the pinned ``maskviz`` dumps and the rejected inputs."""

import hashlib
import json

import numpy as np
import pytest

from regionrec import cli, decoder, harness, prompt
from regionrec.attnmask import canonical_layout
from regionrec.maskio import BinaryMask, MaskRecord, RasterImage, write_pgm, write_records


def run(argv) -> int:
    """Exit code of ``regionrec argv``; argparse errors exit through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def files(tmp_path):
    """A 32x32 image, two labelled masks on it, and good and bad predictions."""
    rng = np.random.default_rng(5)
    write_pgm(RasterImage.from_array(rng.random((32, 32)) * 255), tmp_path / "img.pgm")
    square = np.zeros((32, 32), bool)
    square[4:12, 6:14] = True
    band = np.zeros((32, 32), bool)
    band[20:26, :] = True
    write_records(
        [MaskRecord(BinaryMask.from_array(square), "img", "cat"), MaskRecord(BinaryMask.from_array(band), "img", "dog")],
        tmp_path / "masks.jsonl",
    )
    preds = [{"image_id": "img", "mask_index": 0, "pred": "cat", "gold": "cat"},
             {"image_id": "img", "mask_index": 1, "pred": "puppy", "gold": "dog"}]
    (tmp_path / "pred.jsonl").write_text("".join(json.dumps(p) + "\n" for p in preds))
    (tmp_path / "bad.jsonl").write_text("{not json\n")
    return tmp_path


def _subcommand_cases(d) -> dict:
    """Per subcommand: a valid argv, and one with a single bad input (None
    for a valid bench run, which the config test below makes)."""
    image, masks = ["--image", str(d / "img.pgm")], ["--masks", str(d / "masks.jsonl")]
    return {
        "tokenize": (["tokenize", *image, *masks, "--out-dir", str(d / "tok")],
                     ["tokenize", "--image", str(d / "missing.pgm"), *masks, "--out-dir", str(d / "tok")]),
        "maskviz": (["maskviz", "--layout", "image:1 mask0:1 out0:1"],
                    ["maskviz", "--layout", "image:1 blob:1"]),
        "decode": (["decode", *image, *masks, "--max-label-len", "2"],
                   ["decode", *image, *masks, "--max-label-len", "0"]),
        "eval": (["eval", "--pred", str(d / "pred.jsonl")], ["eval", "--pred", str(d / "bad.jsonl")]),
        "bench": (None, ["bench", "--k-values", "1,x"]),
        "pipeline": (["pipeline", "--records", str(d / "masks.jsonl")],
                     ["pipeline", "--records", str(d / "masks.jsonl"), "--oracle", "ask-someone"]),
    }


@pytest.mark.parametrize("command", ["tokenize", "maskviz", "decode", "eval", "bench", "pipeline"])
def test_exit_codes_per_subcommand(command, files, capsys):
    good, bad = _subcommand_cases(files)[command]
    if good is not None:
        assert run(good) == 0
    capsys.readouterr()
    assert run(bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_sets_subcommand_options(tmp_path, capsys):
    (tmp_path / "bench.cfg").write_text("k_values = 1\nflops_only = true\nrepeats = 1\n")
    assert run(["--config", str(tmp_path / "bench.cfg"), "bench"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["k"] for row in rows] == [1]
    assert "wall_time_ms" not in rows[0]


def test_explicit_flags_beat_the_config(tmp_path, capsys):
    (tmp_path / "viz.cfg").write_text("variant = causal\nlayout = image:1 mask0:1 sep:1 out0:1\n")
    assert run(["--config", str(tmp_path / "viz.cfg"), "maskviz"]) == 0
    assert run(["--config", str(tmp_path / "viz.cfg"), "maskviz", "--variant", "cascade"]) == 0
    causal, cascade = capsys.readouterr().out.split("image:")[1:]
    assert causal == "1 mask0:1 sep:1 out0:1\n1000\n1100\n0000\n1111\n"
    assert cascade == "1 mask0:1 sep:1 out0:1\n1000\n1100\n0000\n1101\n"


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


def test_config_key_that_no_option_uses_exits_2(tmp_path, capsys):
    (tmp_path / "typo.cfg").write_text("varient = causal\n")
    assert run(["--config", str(tmp_path / "typo.cfg"), "maskviz"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'varient'" in err and err.count("\n") == 1
    # an option of another subcommand is a known key
    (tmp_path / "other.cfg").write_text("k_values = 1\n")
    assert run(["--config", str(tmp_path / "other.cfg"), "maskviz"]) == 0


def test_flops_only_runs_no_timed_pass(monkeypatch, capsys):
    # a small decoder keeps the run cheap; only the number of forwards matters
    monkeypatch.setattr(
        cli, "bench_decoder_params",
        lambda seed, enc_dim: decoder.DecoderParams.seeded(seed, decoder.make_vocab([]), enc_dim=enc_dim),
    )
    calls = []
    real_forward = harness.forward
    monkeypatch.setattr(harness, "forward", lambda *a: calls.append(1) or real_forward(*a))
    assert run(["bench", "--k-values", "1,2", "--repeats", "1"]) == 0
    assert len(calls) == 2 and "wall_time_ms" in json.loads(capsys.readouterr().out)["rows"][0]
    calls.clear()
    assert run(["bench", "--k-values", "1,2", "--flops-only"]) == 0
    assert calls == [] and "wall_time_ms" not in json.loads(capsys.readouterr().out)["rows"][0]


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
    decoder.save_decoder_params(used[0], files / "dec.bin", files / "vocab.json")
    assert run(argv + ["--params", str(files / "dec.bin"), "--vocab", str(files / "vocab.json")]) == 0
    assert capsys.readouterr().out == seeded
