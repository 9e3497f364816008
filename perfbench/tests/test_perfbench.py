"""Tests of the benchmark itself: input determinism, failure counting, and
the metric names it prints.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import flops, run  # noqa: E402
from perfbench.inputs import generate  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.workloads import Label, Score, Tokenize, matches_reference  # noqa: E402
from regionrec.attnmask import CascadeConfig, build_cascade_mask, canonical_layout  # noqa: E402
from regionrec.decoder import DecodeResult  # noqa: E402
from regionrec.prompt import MaskTokenSet  # noqa: E402

NULL = NullTracer()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["tokenize", "label", "score"])
def test_generator_is_deterministic(tmp_path, workload):
    generate(workload, 3, tmp_path / "a")
    generate(workload, 3, tmp_path / "b")
    generate(workload, 4, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


def test_tokenize_inputs_exercise_both_filter_stages(tmp_path):
    generate("tokenize", 3, tmp_path)
    wl = Tokenize(tmp_path)
    wl.setup(NULL)
    ok, report = wl.before_pass(NULL)
    assert ok
    assert report["stage1_dropped"] > 0
    assert report["stage2_dropped"] > 0
    assert report["flagged"] > 0


def _workload(cls, workload, tmp_path, images):
    generate(workload, 5, tmp_path)
    wl = cls(tmp_path)
    wl.items = sorted(wl.items, key=lambda item: item["objects"])[:images]
    wl.setup(NULL)
    wl.before_pass(NULL)
    return wl


def test_tokenize_check_rejects_a_changed_token(tmp_path):
    wl = _workload(Tokenize, "tokenize", tmp_path, 1)
    out = wl.sample(wl.items[0], NULL)
    assert wl.check(out, 0)
    sets = list(out["batch"].mask_token_sets)
    sets[0] = MaskTokenSet(tokens=sets[0].tokens + 1e-12, grid_indices=sets[0].grid_indices)
    out["batch"] = dataclasses.replace(out["batch"], mask_token_sets=tuple(sets))
    assert not wl.check(out, 0)


def test_label_check_rejects_changed_logprob_and_token(tmp_path):
    wl = _workload(Label, "label", tmp_path, 1)
    out = wl.sample(wl.items[0], NULL)
    assert wl.check(out, 0)
    good = out["result"]

    steps = [list(s) for s in good.stepwise_logprobs]
    steps[0][0] += 1e-6
    totals = tuple(float(sum(s)) for s in steps)
    out["result"] = DecodeResult(good.labels, tuple(map(tuple, steps)), totals, float(sum(totals)))
    assert not wl.check(out, 0)

    words = good.labels[0].split()
    words[-1] = "w1" if words[-1] != "w1" else "w2"
    out["result"] = dataclasses.replace(good, labels=(" ".join(words),) + good.labels[1:])
    assert not wl.check(out, 0)


def test_score_check_rejects_a_non_finite_loss():
    wl = Score.__new__(Score)
    assert not wl.check({"loss": float("nan")}, 0)
    assert not wl.check({"loss": -1.0}, 0)


def test_reference_comparison():
    want = {"labels": ["w30"], "loss": 1.0, "tokens": [3, 4]}
    assert matches_reference({"labels": ["w30"], "loss": 1.0 + 1e-12, "tokens": [3, 4]}, want)
    assert not matches_reference({"labels": ["w30"], "loss": 1.0 + 1e-6, "tokens": [3, 4]}, want)
    assert not matches_reference({"labels": ["w31"], "loss": 1.0, "tokens": [3, 4]}, want)
    assert not matches_reference({"labels": ["w30"], "loss": 1.0, "tokens": [3, 5]}, want)


def test_corrupted_samples_count_as_failures(tmp_path):
    wl = _workload(Tokenize, "tokenize", tmp_path, 3)
    sample = wl.sample

    def corrupted(item, tr):
        out = sample(item, tr)
        batch = out["batch"]
        zeroed = tuple(dataclasses.replace(ts, tokens=np.zeros_like(ts.tokens)) for ts in batch.mask_token_sets)
        out["batch"] = dataclasses.replace(batch, mask_token_sets=zeroed)
        return out

    clean = run.measure(wl, 0.0, NULL, None)
    assert (clean["attempted"], clean["failed"]) == (4, 0)  # one filter pass and three images
    wl.sample = corrupted
    bad = run.measure(wl, 0.0, NULL, None)
    assert (bad["attempted"], bad["failed"]) == (4, 3)
    assert bad["per_image_ms"] == []


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["tokenize", "label", "score"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tokenize", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tokenize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_forward_flops_hand_count():
    params = SimpleNamespace(dim=2, layers=1, vocab=("a", "b", "c"), enc_dim=1)
    # n=3 rows, 4 visible pairs, 2 injected rows:
    #   qkvo 4*2*3*2*2 = 96, attention 4*4*2 = 32, mlp 2*2*3*2*8 = 192,
    #   head 2*3*2*3 = 36, adapter 2*2*1*2 = 8
    assert flops.forward_flops(3, 4, 2, params) == 96 + 32 + 192 + 36 + 8


def test_decode_flops_counts_dead_slots_per_step():
    layout = canonical_layout(2, 1, [1, 2], 2)
    bits = build_cascade_mask(layout, CascadeConfig.full_cascade()).bits
    params = SimpleNamespace(dim=2, layers=1, vocab=("a", "b", "c"), enc_dim=1)
    assert layout.header() == "image:2 text:1 mask0:1 sep:1 mask1:2 sep:1 out0:2 out1:2"
    spans = [(8, 10), (10, 12)]
    steps = [2, 1]
    # round robin: object 0, object 1, object 0; before each step every
    # unfilled slot is a dead row and column
    expected = 0
    for filled in ([], [8], [8, 10]):
        live = bits.copy()
        dead = [p for p in range(8, 12) if p not in filled]
        live[dead, :] = False
        live[:, dead] = False
        expected += flops.forward_flops(12, int(live.sum()), 5, params)
    assert flops.decode_flops(bits, spans, steps, 5, params) == expected
