#!/usr/bin/env python3
"""digitdrift benchmark: one closed-loop workload per run.

    python3 benchmarks/run.py --workload exact-cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; digitdrift is imported from its
`src/`. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs the same op stream twice, untraced and then traced, and
prints the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Metric names and units come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPS = 11
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))


def import_digitdrift():
    """digitdrift from this checkout's src/, or None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "digitdrift", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import digitdrift

    if os.path.dirname(os.path.realpath(digitdrift.__file__)) != os.path.realpath(
        os.path.join(SRC, "digitdrift")
    ):
        return None
    return digitdrift


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    os.environ.pop("DIGITDRIFT_JOBS", None)
    if import_digitdrift() is None:
        print(f"error: no digitdrift package under {SRC}", file=sys.stderr)
        return 2
    import harness
    from tracer import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    prov = harness.provenance(ROOT, args.seed, harness.input_digest(workload, args.seed))
    print(f"# provenance {json.dumps(prov)}")

    ctx = harness.Context(ROOT)
    # anything that falls back to the CLI's default cache lands in this run's scratch
    os.environ["DIGITDRIFT_CACHE"] = ctx.fresh_dir(keep=True)
    try:
        imports, warmups, setup_refs = [], [], []
        for _ in range(SETUP_REPS):
            imports.append(harness.import_seconds(SRC))
            setup_refs.append(ctx.reference.seconds(harness.SETUP_REFERENCE, harness.SETUP_REF_REPEAT))
            t0 = perf_counter()
            workload.setup(ctx)
            warmups.append(perf_counter() - t0)
        expected = harness.load_digests(DIGESTS, workload.name, args.seed)
        phases = [harness.timed_phase(workload, ctx, args.seed, args.seconds, expected)]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            ctx.tracer = tracer
            try:
                phases.append(harness.timed_phase(workload, ctx, args.seed, args.seconds, expected))
            finally:
                tracer.uninstall()
                ctx.tracer = None
    finally:
        ctx.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = phases[0]
    n = len(plain.outcomes)
    setups = (imports, warmups, setup_refs)
    e2e = harness.end_to_end(plain, harness.setup_seconds(*setups), peak_rss_mb)
    raw = harness.end_to_end(plain, harness.setup_seconds(*setups, scaled=False), peak_rss_mb, scaled=False)
    kinds = {}
    for o in plain.outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
    print(f"# {workload.name}: {n} ops {kinds} in {plain.wall_s:.2f} s, seed {args.seed}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        note = f"  (raw {raw[name]:.6g})" if raw[name] != value else ""
        if name == "op_p90_ms":
            note += f"  ({n} ops, {n - n * 9 // 10} beyond p90)"
        print(f"{workload.name} {name} = {value:.6g} {units[name]}{note}")
    print(f"{workload.name} fail_ratio = {plain.failed / n:.6g} ratio  ({plain.failed} of {n} ops failed)")
    errors = {}
    for o in plain.outcomes:
        if o.error is not None:
            errors.setdefault(o.error.split(":")[0], o.error)
    for first in errors.values():
        print(f"# failure: {first[:240]}")

    layers = {}
    if args.trace:
        traced = phases[1]
        layers = tracer.layer_metrics(len(traced.outcomes))
        layers["bench.ops_traced"] = len(traced.outcomes)
        layers["bench.ops_per_s_untraced"] = plain.ops_per_s()
        layers["bench.ops_per_s_traced"] = traced.ops_per_s()
        layers["bench.trace_overhead"] = plain.ops_per_s() / traced.ops_per_s() - 1.0
        for name in (m["name"] for m in spec["per_layer"]):
            print(f"{workload.name} {name} = {layers[name]:.6g} {units[name]}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        spans = tracer.write_spans(stem + "-spans.jsonl.gz")
        print(f"# {spans} spans written to {stem}-spans.jsonl.gz")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    result = {
        # the byte-identical contract; invariant failures of any seed are in `failed`
        "correct": sum(harness.regressed(p.outcomes, expected) for p in phases) == 0,
        "attempted": sum(len(p.outcomes) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "fail_ratio": plain.failed / n, "errors": errors,
                   "end_to_end": e2e, "end_to_end_raw": raw, "per_layer": layers,
                   "setups": list(zip(*setups)),
                   "ops": [[o.kind, o.latency_s, o.ref_s, o.error is None] for o in plain.outcomes], **result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
