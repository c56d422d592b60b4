#!/usr/bin/env python3
"""Record the per-op output digests that default-seed runs compare against.

    python3 benchmarks/record_digests.py

Runs the first harness.DIGEST_OPS ops of every workload with the default
seed and writes benchmarks/digests.json. An op that fails gets null:
nothing to compare, so fixing it later is not a mismatch. Re-record only
for a change that is meant to alter output bytes.
"""
from __future__ import annotations

import json
import os
import sys

from run import DIGESTS, ROOT, cap_threads, import_digitdrift


def main() -> int:
    cap_threads()
    os.environ.pop("DIGITDRIFT_JOBS", None)
    if import_digitdrift() is None:
        print("error: no digitdrift package under src/", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    ctx = harness.Context(ROOT)
    os.environ["DIGITDRIFT_CACHE"] = ctx.fresh_dir(keep=True)
    recorded = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(ctx)
            phase = harness.timed_phase(workload, ctx, harness.DEFAULT_SEED, 0.0, min_ops=harness.DIGEST_OPS)
            digests = [o.digest for o in phase.outcomes[: harness.DIGEST_OPS]]
            recorded[name] = digests
            print(f"{name}: {len(digests)} ops, {digests.count(None)} failed")
    finally:
        ctx.close()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": harness.DEFAULT_SEED, "workloads": recorded}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
