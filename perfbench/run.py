"""Benchmark for regionrec: tokenize, label and score workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload tokenize --seed 1 --seconds 30 --trace 0

Each run generates its inputs from ``--seed`` under ``perfbench/.work``,
builds the model weights (timed as ``setup_s``), warms up on one image, then
makes whole passes over the images while the timed work stays within
``--seconds``.  Every sample is checked; a failed check counts as a failed
sample.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` the time is split between an untraced and a
traced half and the last line holds the per-layer metrics from the traced
half.  The full run record, with its environment, is written to
``perfbench/.work/results`` and the spans of a traced run to
``perfbench/.work/traces``.  ``--record-reference`` rewrites
``perfbench/reference.json`` from the outputs at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
# One BLAS thread (nproc is 2 on the reference machine): the per-row Python
# attention loop dominates, and a single thread keeps runs steady.
BLAS_THREADS = 1
TAIL_BEYOND = 10  # the tail percentile keeps this many per-image samples above it

E2E_UNITS = {
    "setup_s": "s",
    "sample_p50_ms": "ms",
    "sample_tail_ms": "ms",
    "objects_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "maskio.read_pgm_ms": "ms",
    "maskio.read_records_ms": "ms",
    "maskio.masks_decoded": "count",
    "harness.filter_ms": "ms",
    "harness.kept_frac": "ratio",
    "harness.flagged": "count",
    "region.geometry_ms": "ms",
    "region.crop_ms": "ms",
    "region.grid_ms": "ms",
    "encoder.encode_ms": "ms",
    "encoder.gflops": "GFLOP",
    "encoder.seeded_s": "s",
    "prompt.build_ms": "ms",
    "prompt.ms_per_mask": "ms",
    "prompt.tokens_per_mask": "count",
    "attnmask.build_ms": "ms",
    "attnmask.visible_pairs": "count",
    "attnmask.density": "ratio",
    "decoder.seeded_s": "s",
    "decoder.assemble_ms": "ms",
    "decoder.score_ms": "ms",
    "decoder.decode_ms": "ms",
    "decoder.decode_steps": "count",
    "decoder.ms_per_step": "ms",
    "decoder.gflops": "GFLOP",
    "decoder.seq_len": "count",
    "metrics.evaluate_ms": "ms",
    "metrics.pairs": "count",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the package.

    numpy, the program and the benchmark modules that use them are imported
    only after this has set the BLAS thread count.
    """
    pkg = ROOT / "src" / "regionrec" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"error: {pkg.relative_to(ROOT)} not found; run from a checkout of the repository")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import regionrec

    if Path(regionrec.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"error: imported regionrec from {regionrec.__file__}, not from the checkout")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def timed_setup(wl, tr) -> float:
    """Median seconds to build the workload's weights, over at least three
    builds and up to 200 while the builds total under two seconds."""
    times = []
    while len(times) < 3 or (sum(times) < 2.0 and len(times) < 200):
        t0 = time.perf_counter()
        wl.setup(tr)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(wl, seconds: float, tr, reference: dict | None) -> dict:
    """Whole passes over the images until the next pass would exceed
    ``seconds`` of timed work; at least one pass."""
    from perfbench.workloads import matches_reference

    latencies = [[] for _ in wl.items]
    timed = 0.0
    objects = attempted = failed = passes = turn = 0
    while True:
        tr.sample = None
        pass_time = 0.0
        t0 = time.perf_counter()
        with tr.span("pass", index=passes):
            prepared = wl.before_pass(tr)
        if prepared is not None:
            pass_time += time.perf_counter() - t0
            attempted += 1
            ok, digest = prepared
            if not ok or (reference is not None and not matches_reference(digest, reference["filter"])):
                failed += 1
        for idx, item in enumerate(wl.items):
            attempted += 1
            turn += 1
            tr.sample = f"{passes}:{item['image_id']}"
            try:
                t0 = time.perf_counter()
                with tr.span("sample", image=item["image_id"]):
                    out = wl.sample(item, tr)
                dt = time.perf_counter() - t0
                ok = wl.check(out, turn)
                if reference is not None:
                    ok = ok and matches_reference(wl.digest(out), reference[item["image_id"]])
                if tr.enabled:
                    wl.probe(out, tr)
            except Exception:  # a failing sample is counted, and the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            pass_time += dt
            objects += out["objects"]
            if ok:
                latencies[idx].append(dt)
            else:
                failed += 1
        tr.sample = None
        timed += pass_time
        passes += 1
        if timed + pass_time > seconds:
            break
    per_image = sorted(statistics.median(v) * 1000.0 for v in latencies if v)
    return {
        "per_image_ms": per_image,
        "timed_s": timed,
        "objects": objects,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
    }


def tail(per_image: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile of the
    per-image latencies with at least TAIL_BEYOND images above it."""
    n = len(per_image)
    rank = max(1, n - TAIL_BEYOND)
    return 100.0 * rank / n, per_image[rank - 1]


def per_layer(spans: list[dict], untraced_p50: float, traced_p50: float) -> dict:
    """Per-layer metrics from the traced half's spans.

    Times and counts are per sample (summed over a sample's calls) and then
    the median over samples; set-up and filter spans are per call.  A layer
    the workload never calls reads 0.
    """
    from perfbench.tracing import duration_ms

    base = {"id", "name", "parent", "sample", "start", "end"}
    ms = defaultdict(lambda: defaultdict(float))
    count = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(list)
    for r in spans:
        if r["sample"] is None:
            calls[r["name"]].append(r)
            continue
        ms[r["sample"]][r["name"]] += duration_ms(r)
        for key, value in r.items():
            if key not in base and isinstance(value, (int, float)):
                count[r["sample"]][f"{r['name']}.{key}"] += value
    samples = sorted(ms)

    def med(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def sample_med(fn) -> float:
        return med(fn(ms[s], count[s]) for s in samples)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def call_med(name: str, key: str | None = None, scale: float = 1.0) -> float:
        return med((duration_ms(r) / 1000.0 if key is None else r[key]) * scale for r in calls[name])

    return {
        "maskio.read_pgm_ms": sample_med(lambda t, c: t["maskio.read_pgm"]),
        "maskio.read_records_ms": sample_med(lambda t, c: t["maskio.read_records"]),
        "maskio.masks_decoded": sample_med(lambda t, c: c["maskio.read_records.masks"]),
        "harness.filter_ms": call_med("harness.run_filter_pipeline", scale=1000.0),
        "harness.kept_frac": call_med("harness.run_filter_pipeline", "kept_frac"),
        "harness.flagged": call_med("harness.run_filter_pipeline", "flagged"),
        "region.geometry_ms": sample_med(lambda t, c: t["region.tight_bbox"] + t["region.context_crop_window"]),
        "region.crop_ms": sample_med(lambda t, c: t["region.extract_and_resize"]),
        "region.grid_ms": sample_med(lambda t, c: t["region.downsample_to_grid"]),
        "encoder.encode_ms": sample_med(lambda t, c: t["encoder.encode"]),
        "encoder.gflops": sample_med(lambda t, c: c["probe.encoder_gflops"]),
        "encoder.seeded_s": call_med("encoder.seeded"),
        "prompt.build_ms": sample_med(lambda t, c: t["prompt.build_prompt_batch"]),
        "prompt.ms_per_mask": sample_med(
            lambda t, c: ratio(t["prompt.build_prompt_batch"], c["prompt.build_prompt_batch.k"])),
        "prompt.tokens_per_mask": sample_med(
            lambda t, c: ratio(c["prompt.build_prompt_batch.tokens"], c["prompt.build_prompt_batch.k"])),
        "attnmask.build_ms": sample_med(lambda t, c: t["attnmask.build_cascade_mask"]),
        "attnmask.visible_pairs": sample_med(lambda t, c: c["probe.visible_pairs"]),
        "attnmask.density": sample_med(lambda t, c: c["probe.density"]),
        "decoder.seeded_s": call_med("decoder.seeded"),
        "decoder.assemble_ms": sample_med(lambda t, c: t["decoder.assemble_sequence"]),
        "decoder.score_ms": sample_med(lambda t, c: t["decoder.teacher_forced_loss"]),
        "decoder.decode_ms": sample_med(lambda t, c: t["decoder.decode_objects"]),
        "decoder.decode_steps": sample_med(lambda t, c: c["decoder.decode_objects.steps"]),
        "decoder.ms_per_step": sample_med(
            lambda t, c: ratio(t["decoder.decode_objects"], c["decoder.decode_objects.steps"])),
        "decoder.gflops": sample_med(lambda t, c: c["probe.decoder_gflops"]),
        "decoder.seq_len": sample_med(lambda t, c: c["probe.seq_len"]),
        "metrics.evaluate_ms": sample_med(lambda t, c: t["metrics.evaluate"]),
        "metrics.pairs": sample_med(lambda t, c: c["metrics.evaluate.pairs"]),
        "trace.untraced_p50_ms": untraced_p50,
        "trace.traced_p50_ms": traced_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
    }


@contextmanager
def prepared(workload: str, seed: int):
    """The workload over freshly generated inputs, deleted afterwards: they
    are regenerated from the seed."""
    from perfbench.inputs import generate
    from perfbench.workloads import WORKLOADS

    data = WORK / "inputs" / f"{workload}-{seed}"
    shutil.rmtree(data, ignore_errors=True)
    generate(workload, seed, data)
    try:
        yield WORKLOADS[workload](data)
    finally:
        shutil.rmtree(data, ignore_errors=True)


def warm_up(wl, tr) -> None:
    """One untimed sample on the image with the fewest objects."""
    wl.before_pass(tr)
    wl.sample(min(wl.items, key=lambda item: item["objects"]), tr)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    with prepared(workload, seed) as wl:
        return _run(wl, workload, seed, seconds, traced)


def _run(wl, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench.tracing import NullTracer, Tracer

    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload]
    null = NullTracer()
    tr = Tracer() if traced else null
    setup_s = timed_setup(wl, tr)
    warm_up(wl, null)
    if not traced:
        result = measure(wl, seconds, null, reference)
    else:
        plain = measure(wl, seconds / 2.0, null, reference)
        result = measure(wl, seconds / 2.0, tr, reference)
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
    per_image = result["per_image_ms"]
    if not per_image:
        raise RuntimeError("no sample succeeded")
    tail_pct, tail_ms = tail(per_image)
    record = {
        "workload": workload,
        "trace": int(traced),
        "seconds": seconds,
        "env": environment(seed),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "images": len(wl.items),
        "passes": result["passes"],
        "tail_percentile": tail_pct,
        "timed_s": result["timed_s"],
        "per_image_ms": per_image,
    }
    if traced:
        values = per_layer(tr.spans, statistics.median(plain["per_image_ms"]), statistics.median(per_image))
        units = LAYER_UNITS
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tr.write(traces / f"{workload}-seed{seed}.jsonl")
    else:
        values = {
            "setup_s": setup_s,
            "sample_p50_ms": statistics.median(per_image),
            "sample_tail_ms": tail_ms,
            "objects_per_s": result["objects"] / result["timed_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return record


def record_reference() -> None:
    """Write the outputs of one pass at the default seed as the reference."""
    from perfbench.tracing import NullTracer
    from perfbench.workloads import WORKLOADS

    null = NullTracer()
    reference = {}
    for name in WORKLOADS:
        with prepared(name, DEFAULT_SEED) as wl:
            wl.setup(null)
            entry = {}
            filtered = wl.before_pass(null)
            if filtered is not None:
                entry["filter"] = filtered[1]
            for item in wl.items:
                entry[item["image_id"]] = wl.digest(wl.sample(item, null))
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("tokenize", "label", "score"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.record_reference:
        record_reference()
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("per_image_ms", "metrics")}
    print("run " + json.dumps(summary, sort_keys=True))
    for metric, m in record["metrics"].items():
        print(f"  {metric:26s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
