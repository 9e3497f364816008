"""Command-line surface: tokenize, maskviz, decode, eval, bench, pipeline.

Outputs are machine-readable: ``maskviz`` dumps the mask of ``--layout``
(default ``FIG4_PRESET``) as ASCII, every other subcommand prints JSON
(``--pretty`` indents it).  ``tokenize`` and ``decode`` reject more masks
than ``prompt.MAX_MASKS``, ``maskviz`` a layout longer than
``harness.BENCH_DEC_MAX_LEN``.  Every subcommand is deterministic under a
fixed ``--seed`` (default 0).  Flags are the only way to set a value.

Exit codes: 0 success, 2 input error (a ``ValueError`` or ``OSError``, a
usage error included; one line on stderr), 3 any other exception, an
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import attnmask, decoder, harness, maskio, metrics, prompt
from .attnmask import CascadeConfig, build_cascade_mask, dump_attention_mask
from .encoder import EncoderParams
from .harness import ScriptedOracle, bench_decoder_params, run_filter_pipeline, run_scaling_bench, synthesize_mask_corpus
from .prompt import OUTPUT_SLOTS, build_prompt_batch, dump_token_set

_VARIANTS = {
    "cascade": CascadeConfig.full_cascade,
    "region": CascadeConfig.region_variant,
    "output": CascadeConfig.output_variant,
    "causal": CascadeConfig.plain_causal,
}

# the two-object worked example: image, text, two mask segments, two
# single-token output chunks, separators between same-kind neighbours
FIG4_PRESET = "image:2 text:1 mask0:2 sep:1 mask1:2 out0:1 sep:1 out1:1"


def _prompt_batch(args):
    """The prompt batch of ``--image`` and ``--masks`` (at most
    ``prompt.MAX_MASKS`` masks) under the encoder of ``--seed``."""
    image = maskio.read_pgm(args.image)
    records = maskio.read_records(args.masks)
    if len(records) > prompt.MAX_MASKS:
        raise ValueError(f"capacity error: {len(records)} masks exceeds max_masks={prompt.MAX_MASKS}")
    params = EncoderParams.seeded(args.seed, dim=args.enc_dim)
    return build_prompt_batch(image, [r.mask for r in records], params, scale=args.scale)


def _cmd_tokenize(args) -> dict:
    batch = _prompt_batch(args)
    layout = batch.layout(args.text_len, OUTPUT_SLOTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ts in batch.mask_token_sets:
        dump_token_set(ts, out_dir / f"mask_{ts.mask_index:03d}.json", out_dir / f"mask_{ts.mask_index:03d}.f32")
    return {
        "masks": batch.num_masks,
        "token_counts": [ts.count for ts in batch.mask_token_sets],
        "image_tokens": batch.image_tokens.rows * batch.image_tokens.cols,
        "total_sequence": layout.n,
    }


def _cmd_maskviz(args) -> str:
    layout = attnmask.parse_layout_header(args.layout)
    if layout.n > harness.BENCH_DEC_MAX_LEN:
        raise ValueError(f"layout of {layout.n} positions exceeds max_len={harness.BENCH_DEC_MAX_LEN}")
    return dump_attention_mask(build_cascade_mask(layout, _VARIANTS[args.variant]()))


def _cmd_decode(args) -> dict:
    if bool(args.params) != bool(args.vocab):
        raise ValueError("--params and --vocab must be given together")
    # the weights are checked before the image is read and every crop encoded
    if args.params:
        params = decoder.load_decoder_params(args.params, args.vocab)
    else:
        words = sorted(({w for w in args.text.split()} | {f"w{i}" for i in range(60)}) - set(decoder.SPECIALS))
        params = decoder.DecoderParams.seeded(args.seed, decoder.make_vocab(words), enc_dim=args.enc_dim)
    text_ids = [params.token_id(w) for w in args.text.split()]
    batch = _prompt_batch(args)
    config = _VARIANTS[args.variant]()
    return asdict(decoder.decode_objects(batch, text_ids, params, config=config, max_label_len=args.max_label_len))


def _cmd_eval(args) -> dict:
    pairs = metrics.read_predictions(args.pred)
    provider = metrics.TrigramHashProvider(dim=args.provider_dim)
    vocabulary = ()
    if args.vocab_file:
        vocabulary = [ln.strip() for ln in Path(args.vocab_file).read_text().splitlines() if ln.strip()]
        if not vocabulary:
            raise ValueError(f"vocabulary file {args.vocab_file} holds no entry")
    return asdict(metrics.evaluate(pairs, provider, vocabulary))


def _cmd_bench(args) -> dict:
    k_values = [int(v) for v in args.k_values.split(",") if v]
    harness.check_k_values(k_values)  # before max(), which fails on an empty list with Python's own message
    image, masks = synthesize_mask_corpus(max(k_values), seed=args.seed)
    enc = EncoderParams.seeded(args.seed, dim=args.enc_dim)
    dec = bench_decoder_params(seed=args.seed, enc_dim=args.enc_dim)
    return run_scaling_bench(k_values, image, masks, enc, dec, text_len=args.text_len, repeats=args.repeats)


def _cmd_pipeline(args) -> dict:
    records = maskio.read_records(args.records)
    if args.oracle == "always-yes":
        oracle = ScriptedOracle({})
    elif args.oracle.startswith("file:"):
        table = json.loads(Path(args.oracle[5:]).read_text())
        if not isinstance(table, list):
            raise ValueError("oracle file must hold a JSON list of objects")
        keys = ("image_id", "label", "answer")
        for i, row in enumerate(table, start=1):
            if not isinstance(row, dict) or not all(isinstance(row.get(key), str) for key in keys):
                raise ValueError(f"oracle file row {i} must be an object with string image_id, label and answer")
        oracle = ScriptedOracle({(row["image_id"], row["label"]): row["answer"] for row in table})
    else:
        raise ValueError(f"unknown oracle {args.oracle!r} (use always-yes or file:PATH)")
    report = run_filter_pipeline(records, oracle, min_ratio=args.min_ratio, head_threshold=args.head_threshold)
    if args.out_records:
        maskio.write_records(report.kept_records, args.out_records)
    return report.summary()


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, which ``main`` reports in one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regionrec",
        description="Word-free region recognition core: tokenize masks, build "
        "cascade attention masks, decode labels, evaluate, benchmark, filter.",
    )
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="convert masks to token sets")
    p.add_argument("--image", required=True, help="PGM image")
    p.add_argument("--masks", required=True, help="JSON-lines mask records")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scale", type=float, default=prompt.CONTEXT_SCALE, help="context scale (default 2)")
    p.add_argument("--enc-dim", type=int, default=16)
    p.add_argument("--text-len", type=int, default=4)
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("maskviz", help="render a cascade attention mask as ASCII")
    p.add_argument("--layout", default=FIG4_PRESET, help="layout header (default %(default)r)")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="cascade")
    p.set_defaults(func=_cmd_maskviz)

    p = sub.add_parser("decode", help="greedy multi-mask label decoding")
    p.add_argument("--image", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--text", default="<start>")
    p.add_argument("--params", help="decoder weight blob")
    p.add_argument("--vocab", help="vocabulary JSON array")
    p.add_argument("--scale", type=float, default=prompt.CONTEXT_SCALE)
    p.add_argument("--enc-dim", type=int, default=16)
    p.add_argument("--max-label-len", type=int, default=prompt.OUTPUT_SLOTS)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="cascade")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--pred", required=True, help="JSON-lines predictions")
    p.add_argument("--vocab-file", help="newline-delimited category vocabulary")
    p.add_argument("--provider-dim", type=int, default=256)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="instance-scaling cost benchmark")
    p.add_argument("--k-values", default="1,2,4,8,16,32")
    p.add_argument("--repeats", type=int, default=5, help="timed passes per K; 0 omits wall times (default 5)")
    p.add_argument("--text-len", type=int, default=harness.BENCH_TEXT_LEN)
    p.add_argument("--enc-dim", type=int, default=16)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("pipeline", help="area-ratio filter plus oracle re-query")
    p.add_argument("--records", required=True)
    p.add_argument("--oracle", default="always-yes", help="'always-yes' or 'file:answers.json'")
    p.add_argument("--min-ratio", type=float, default=harness.MIN_AREA_RATIO)
    p.add_argument("--head-threshold", type=int, default=harness.HEAD_THRESHOLD)
    p.add_argument("--out-records", help="write surviving records here")
    p.set_defaults(func=_cmd_pipeline)

    # also after the subcommand; SUPPRESS keeps an absent sub-flag from
    # resetting a top-level --pretty
    for p in sub.choices.values():
        p.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help="indent JSON output")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its report: a dict as JSON, maskviz's
    dump as it is.  ``--help`` exits 0 through ``SystemExit``."""
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        if not isinstance(report, str):
            report = json.dumps(report, sort_keys=True, indent=2 if args.pretty else None)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations are bugs; surface loudly
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
