"""The three benchmark workloads and their per-sample correctness checks.

A workload turns one generated image into one sample: load it through
``maskio``, tokenize its masks, and (label, score) run the decoder.  Every
call into ``regionrec`` inside a sample is wrapped in a tracer span; the
untraced run passes a no-op tracer.  Checks run after a sample's timed
region and return False rather than raising, so a wrong output counts as a
failed sample instead of ending the run.

Model weights are always built from ``MODEL_SEED`` (the CLI's default seed):
the benchmark seed varies the inputs, never the model.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from regionrec import decoder, maskio, metrics
from regionrec.attnmask import CascadeConfig, build_cascade_mask, canonical_layout
from regionrec.encoder import GRID_SIDE, EncoderParams, encode
from regionrec.harness import ScriptedOracle, bench_decoder_params, run_filter_pipeline
from regionrec.prompt import CONTEXT_SCALE, OUTPUT_SLOTS, build_prompt_batch, mask2token
from regionrec.region import (
    context_crop_window,
    downsample_to_grid,
    extract_and_resize,
    resize_image,
    tight_bbox,
)

from . import flops

MODEL_SEED = 0
ENC_DIM = 16
TEXT = "<start>"  # the CLI decode default
SCORE_TEXT_LEN = 128  # harness.BENCH_TEXT_LEN
REL_TOL = 1e-9  # reference floats may differ in the last bits across BLAS kernels


def _digest_ints(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def matches_reference(got, want) -> bool:
    """Exact for strings and integers, within REL_TOL for floats."""
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(matches_reference(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(matches_reference(g, w) for g, w in zip(got, want))
        )
    return got == want


class Workload:
    """Shared loading, set-up and stage probe; subclasses define a sample."""

    name = ""

    def __init__(self, data_dir):
        self.data_dir = Path(data_dir)
        manifest = json.loads((self.data_dir / "manifest.json").read_text())
        self.items = manifest["images"]
        self.enc = None

    def setup(self, tr) -> None:
        with tr.span("encoder.seeded"):
            self.enc = EncoderParams.seeded(MODEL_SEED, dim=ENC_DIM)

    def before_pass(self, tr):
        """Work done once per pass over the images.

        Returns None when there is none, else (ok, digest) for the pass.
        """
        return None

    def _load(self, item, tr):
        with tr.span("maskio.read_pgm"):
            image = maskio.read_pgm(self.data_dir / item["pgm"])
        with tr.span("maskio.read_records") as sp:
            records = maskio.read_records(self.data_dir / item["records"])
            sp["masks"] = len(records)
        return image, records

    def _prompt(self, image, masks, tr):
        with tr.span("prompt.build_prompt_batch") as sp:
            batch = build_prompt_batch(image, masks, self.enc)
            sp["k"] = len(masks)
            sp["tokens"] = sum(ts.count for ts in batch.mask_token_sets)
        return batch

    def probe(self, out, tr) -> None:
        """Traced run only, outside the sample's latency: call the public
        Mask2Token stage functions on the sample's masks, one span each, and
        attach the sample's analytic counts to the probe span."""
        image, masks = out["image"], out["masks"]
        side = self.enc.patch_side * GRID_SIDE
        encoder_gflops = flops.encoder_flops(len(masks) + 1, self.enc, GRID_SIDE) / 1e9
        with tr.span("probe", encoder_gflops=encoder_gflops, **self.probe_counts(out)):
            with tr.span("region.resize_image"):
                whole = resize_image(image, side, side)
            with tr.span("encoder.encode"):
                encode(whole, self.enc)
            for mask in masks:
                with tr.span("region.tight_bbox"):
                    bbox = tight_bbox(mask)
                with tr.span("region.context_crop_window"):
                    window = context_crop_window(bbox, CONTEXT_SCALE, image.width, image.height)
                with tr.span("region.extract_and_resize"):
                    crop = extract_and_resize(image, window, side)
                with tr.span("encoder.encode"):
                    encode(crop, self.enc)
                with tr.span("region.downsample_to_grid"):
                    downsample_to_grid(mask, window, GRID_SIDE, GRID_SIDE)

    def probe_counts(self, out) -> dict:
        """Decoder counts of a sample: seq_len, decoder_gflops and, where a
        cascade mask is built, its visible pairs and density."""
        return {}


def _output_positions(layout):
    """(anchors, spans): the last position of each mask segment, and the
    (start, stop) slot range of each output chunk."""
    anchors, spans, pos = [], [], 0
    for seg in layout.segments:
        if seg.kind == "mask":
            anchors.append(pos + seg.length - 1)
        elif seg.kind == "out":
            spans.append((pos, pos + seg.length))
        pos += seg.length
    return anchors, spans


class Tokenize(Workload):
    """Filter the corpus once per pass, then load and tokenize each image."""

    name = "tokenize"

    def before_pass(self, tr) -> tuple[bool, dict]:
        corpus, where = [], []
        for item in self.items:
            with tr.span("maskio.read_records"):
                records = maskio.read_records(self.data_dir / item["records"])
            corpus.extend(records)
            where.extend((item["image_id"], j) for j in range(len(records)))
        rows = json.loads((self.data_dir / "oracle.json").read_text())
        oracle = ScriptedOracle({(r["image_id"], r["label"]): r["answer"] for r in rows})
        with tr.span("harness.run_filter_pipeline") as sp:
            report = run_filter_pipeline(corpus, oracle)
            sp["kept_frac"] = report.final_kept / report.input_count
            sp["flagged"] = report.flagged
        kept_ids = {id(r) for r in report.kept_records}
        self.kept: dict[str, set[int]] = {}
        for record, (image_id, j) in zip(corpus, where):
            if id(record) in kept_ids:
                self.kept.setdefault(image_id, set()).add(j)
        ok = (
            report.input_count == len(corpus)
            and report.stage1_kept + report.stage1_dropped == report.input_count
            and report.final_kept == report.stage1_kept - report.stage2_dropped
            and len(report.flagged_records) == report.flagged
            and all(self.kept.get(item["image_id"]) for item in self.items)
        )
        return ok, json.loads(report.to_json())

    def sample(self, item, tr) -> dict:
        image, records = self._load(item, tr)
        keep = self.kept[item["image_id"]]
        masks = [r.mask for j, r in enumerate(records) if j in keep]
        batch = self._prompt(image, masks, tr)
        return {"image": image, "masks": masks, "batch": batch, "objects": len(masks)}

    def check(self, out, turn: int) -> bool:
        """Tokenizing one mask alone gives exactly its set in the batch."""
        j = turn % len(out["masks"])
        alone = mask2token(out["image"], out["masks"][j], self.enc, mask_index=j)
        in_batch = out["batch"].mask_token_sets[j]
        return np.array_equal(alone.tokens, in_batch.tokens) and np.array_equal(
            alone.grid_indices, in_batch.grid_indices
        )

    def digest(self, out) -> dict:
        sets = out["batch"].mask_token_sets
        return {
            "kept": len(sets),
            "tokens": [ts.count for ts in sets],
            "grid": _digest_ints(ts.grid_indices for ts in sets),
            "token_sum": float(sum(ts.tokens.sum() for ts in sets)),
            "image_sum": float(out["batch"].image_tokens.values.sum()),
        }


class Label(Workload):
    """CLI ``decode`` defaults on every image, then score against gold."""

    name = "label"

    def setup(self, tr) -> None:
        super().setup(tr)
        words = sorted(({w for w in TEXT.split()} | {f"w{i}" for i in range(60)}) - set(decoder.SPECIALS))
        with tr.span("decoder.seeded"):
            self.dec = decoder.DecoderParams.seeded(MODEL_SEED, decoder.make_vocab(words), enc_dim=ENC_DIM)
        self.text_ids = [self.dec.token_id(w) for w in TEXT.split()]
        self.provider = metrics.TrigramHashProvider()

    def sample(self, item, tr) -> dict:
        image, records = self._load(item, tr)
        masks = [r.mask for r in records]
        batch = self._prompt(image, masks, tr)
        with tr.span("decoder.decode_objects", k=len(masks)) as sp:
            result = decoder.decode_objects(
                batch, self.text_ids, self.dec, config=CascadeConfig.full_cascade(), max_label_len=OUTPUT_SLOTS
            )
            sp["steps"] = sum(len(s) for s in result.stepwise_logprobs)
        pairs = list(zip(result.labels, (r.label for r in records)))
        with tr.span("metrics.evaluate", pairs=len(pairs)):
            report = metrics.evaluate(pairs, self.provider)
        return {"image": image, "masks": masks, "batch": batch, "result": result, "report": report,
                "objects": len(masks)}

    def _filled(self, out):
        """Layout, teacher-forced sequence and decoded ids of the finished decode."""
        batch, result = out["batch"], out["result"]
        grid = batch.image_tokens
        layout = canonical_layout(grid.rows * grid.cols, len(self.text_ids),
                                  [ts.count for ts in batch.mask_token_sets], OUTPUT_SLOTS)
        decoded = {}
        for i, (label, steps) in enumerate(zip(result.labels, result.stepwise_logprobs)):
            ids = [self.dec.token_id(w) for w in label.split()]
            if len(steps) > len(ids):
                ids.append(self.dec.end_id)
            decoded[i] = ids
        seq = decoder.assemble_sequence(
            layout, self.dec, image_values=grid.tokens(),
            mask_values={ts.mask_index: ts.tokens for ts in batch.mask_token_sets},
            text_ids=self.text_ids, output_ids=decoded,
        )
        return layout, seq, decoded

    def check(self, out, turn: int) -> bool:
        """Each decoded token is the argmax of one teacher-forced forward at
        its anchor, and each step log-prob matches it within 1e-9."""
        result = out["result"]
        layout, seq, decoded = self._filled(out)
        logits = decoder.forward(seq, build_cascade_mask(layout, CascadeConfig.full_cascade()), self.dec)
        anchors, spans = _output_positions(layout)
        for i, ids in decoded.items():
            steps = result.stepwise_logprobs[i]
            if len(steps) != len(ids):
                return False
            for s, (tok, lp) in enumerate(zip(ids, steps)):
                row = logits[anchors[i] if s == 0 else spans[i][0] + s - 1]
                if int(np.argmax(row)) != tok or abs(decoder.log_softmax(row)[tok] - lp) > 1e-9:
                    return False
        return True

    def digest(self, out) -> dict:
        result, report = out["result"], out["report"]
        return {
            "labels": list(result.labels),
            "logprob": [float(v) for v in result.per_object_logprob],
            "similarity": report.semantic_similarity,
            "iou": report.semantic_iou,
        }

    def probe_counts(self, out) -> dict:
        # one full forward per decode step over the fully allocated layout
        layout, seq, _ = self._filled(out)
        bits = build_cascade_mask(layout, CascadeConfig.full_cascade()).bits
        steps = [len(s) for s in out["result"].stepwise_logprobs]
        injected = int((seq.ids < 0).sum())
        gflops = flops.decode_flops(bits, _output_positions(layout)[1], steps, injected, self.dec) / 1e9
        return {"seq_len": layout.n, "decoder_gflops": gflops}


class Score(Workload):
    """Teacher-forced scoring of gold labels with the bench decoder."""

    name = "score"

    def setup(self, tr) -> None:
        super().setup(tr)
        with tr.span("decoder.seeded"):
            self.dec = bench_decoder_params(seed=MODEL_SEED, enc_dim=ENC_DIM)
        self.text_ids = [self.dec.token_id(decoder.START)] * SCORE_TEXT_LEN
        self.isolation_checked = False

    def sample(self, item, tr) -> dict:
        image, records = self._load(item, tr)
        masks = [r.mask for r in records]
        batch = self._prompt(image, masks, tr)
        grid = batch.image_tokens
        with tr.span("attnmask.canonical_layout"):
            layout = canonical_layout(grid.rows * grid.cols, SCORE_TEXT_LEN,
                                      [ts.count for ts in batch.mask_token_sets], OUTPUT_SLOTS)
        with tr.span("attnmask.build_cascade_mask"):
            mask = build_cascade_mask(layout, CascadeConfig.full_cascade())
        with tr.span("decoder.encode_label"):
            gold = {i: decoder.encode_label(r.label, self.dec) for i, r in enumerate(records)}
        with tr.span("decoder.assemble_sequence"):
            seq = decoder.assemble_sequence(
                layout, self.dec, image_values=grid.tokens(),
                mask_values={ts.mask_index: ts.tokens for ts in batch.mask_token_sets},
                text_ids=self.text_ids, output_ids=gold,
            )
        with tr.span("decoder.teacher_forced_loss"):
            loss = decoder.teacher_forced_loss(seq, mask, self.dec)
        return {"image": image, "masks": masks, "layout": layout, "mask": mask, "seq": seq,
                "loss": loss, "objects": len(masks)}

    def check(self, out, turn: int) -> bool:
        """The loss is a finite cross-entropy; once per run, isolating one
        object leaves its image, text, mask and output rows bit-identical."""
        if not (math.isfinite(out["loss"]) and out["loss"] > 0.0):
            return False
        if self.isolation_checked:
            return True
        self.isolation_checked = True
        layout, seq = out["layout"], out["seq"]
        keep = turn % layout.num_objects
        full = decoder.forward(seq, out["mask"], self.dec)
        iso_seq, iso_mask = decoder.isolate_single_mask(seq, layout, keep, pad_id=self.dec.pad_id)
        alone = decoder.forward(iso_seq, iso_mask, self.dec)
        rows = np.concatenate([layout.positions("image"), layout.positions("text"),
                               layout.positions("mask", keep), layout.positions("out", keep)])
        return bool(np.array_equal(full[rows], alone[rows]))

    def digest(self, out) -> dict:
        return {"n": out["layout"].n, "loss": float(out["loss"])}

    def probe_counts(self, out) -> dict:
        n, pairs = out["layout"].n, out["mask"].visible_pairs()
        injected = int((out["seq"].ids < 0).sum())
        return {
            "seq_len": n,
            "visible_pairs": pairs,
            "density": pairs / (n * (n + 1) // 2),
            "decoder_gflops": flops.forward_flops(n, pairs, injected, self.dec) / 1e9,
        }


WORKLOADS = {w.name: w for w in (Tokenize, Label, Score)}
