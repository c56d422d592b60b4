"""Closed-loop op runner, statistics and provenance for the benchmark.

One caller in one process: each op starts only after the previous one
finished and was checked. An op fails when it raises, when its check
rejects its output, or (with the default seed) when its output digest
differs from the one recorded at the seed commit.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

DEFAULT_SEED = 0
MIN_OPS = 100  # p90 then has at least ten ops beyond it
DIGEST_OPS = 400  # default-seed ops whose output digests are recorded
INPUT_DIGEST_ROUNDS = 64

# Typical time of each reference part between ops on a 2-vCPU Xeon VM,
# Python 3.11, numpy 2.4: scaled times read as seconds on that machine.
REF_S = {"interp": 0.0025, "mem": 0.0009}
REF_WINDOW = 2  # op i is scaled by the reference timings of ops i-2..i+2
SETUP_REFERENCE = ("interp",)  # warm-up is interpreter-bound in every workload
SETUP_REF_REPEAT = 10  # warm-ups take up to 0.4 s; one 2.5 ms reference is too noisy
IMPORT_REF_S = 0.1  # typical time of `import numpy` in a fresh interpreter there


class Reference:
    """Fixed work timed before every op, to take the host's speed swings out
    of the figures.

    On a shared VM the same op runs up to 2x slower for seconds at a time,
    and interpreter-bound and memory-bound code slow down by different
    amounts. So the reference has two parts: "interp" (bytecode on small
    ints, 400-bit integer arithmetic, small numpy calls) and "mem" (a
    strided pass over 8 MB). Each workload names the parts that match what
    its ops spend their time on; only those run, right before each op, and
    op i's latency is scaled by the nominal time of those parts over their
    median time around op i. The reference uses no digitdrift code, so a
    change to the program does not move it; raw latencies are reported as
    well.
    """

    def __init__(self):
        self.big = (1 << 400) - 12345
        self.xs = np.arange(4000, dtype=np.float64)
        self.block = np.ones(1 << 20)

    def interp(self) -> float:
        acc = 0
        for i in range(4000):
            acc += (i * 2654435761) % 1000003
        x = self.big
        for i in range(600):
            x = (x * 3 + i) % (self.big + 2 * i + 1)
        total = float(acc + x % 1000)
        for _ in range(20):
            total += float(np.sum(np.sin(self.xs) * self.xs))
        return total

    def mem(self) -> float:
        return float(self.block[::8].sum())

    def seconds(self, parts, repeat: int = 1) -> dict[str, float]:
        """Mean time of each of `parts` over `repeat` runs. Parts not named
        keep their nominal time: running them would only evict the op's
        cached data."""
        out = dict(REF_S)
        for part in parts:
            t0 = perf_counter()
            for _ in range(repeat):
                getattr(self, part)()
            out[part] = (perf_counter() - t0) / repeat
        return out


def scales(ref_s: list[dict[str, float]], parts, window: int = REF_WINDOW) -> list[float]:
    """Per index: nominal time of `parts` over their median time nearby."""
    nominal = sum(REF_S[p] for p in parts)
    totals = [sum(r[p] for p in parts) for r in ref_s]
    n = len(totals)
    return [
        nominal / statistics.median(totals[max(0, i - window) : min(n, i + window + 1)])
        for i in range(n)
    ]


class CheckFailed(Exception):
    """The op returned, but its output is wrong."""


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


@dataclass
class OpOutcome:
    kind: str
    latency_s: float  # raw wall time of the call
    error: str | None = None  # None when the op passed every check
    digest: str | None = None  # of the checked output, when it passed
    ref_s: dict[str, float] = field(default_factory=lambda: dict(REF_S))  # just before the op


def run_op(kind: str, call, check, expected_digest: str | None = None) -> OpOutcome:
    """Time call(), then check its result outside the timed interval.

    check(result) returns the output text whose digest is the op's
    fingerprint, or raises CheckFailed.
    """
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # any exception is a failed op, not a crash
        return OpOutcome(kind, perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - t0
    try:
        fingerprint = digest(check(result))
    except CheckFailed as exc:
        return OpOutcome(kind, latency, f"check failed: {exc}")
    if expected_digest is not None and fingerprint != expected_digest:
        return OpOutcome(kind, latency, f"digest mismatch: {fingerprint} != recorded {expected_digest}")
    return OpOutcome(kind, latency, None, fingerprint)


class Context:
    """Per-run scratch space inside the checkout; every cache lives here."""

    def __init__(self, root: str):
        scratch = os.path.join(root, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.tracer = None  # set during the traced phase
        self.reference = Reference()
        self._op_dirs: list[str] = []

    def fresh_dir(self, keep: bool = False) -> str:
        """A new empty directory; removed after the current op unless kept."""
        path = tempfile.mkdtemp(dir=self.tmp)
        if not keep:
            self._op_dirs.append(path)
        return path

    def end_op(self) -> None:
        for path in self._op_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._op_dirs.clear()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


@dataclass
class PhaseResult:
    reference: tuple[str, ...]  # Reference parts that scale this workload
    outcomes: list[OpOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(o.error is not None for o in self.outcomes)

    def latencies(self, scaled: bool = True) -> list[float]:
        raw = [o.latency_s for o in self.outcomes]
        if not scaled:
            return raw
        return [t * s for t, s in zip(raw, scales([o.ref_s for o in self.outcomes], self.reference))]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ops per second of busy time (check time excluded)."""
        return len(self.outcomes) / sum(self.latencies(scaled))


def timed_phase(
    workload, ctx: Context, seed: int, seconds: float, expected=None, min_ops: int = MIN_OPS
) -> PhaseResult:
    """Run whole rounds of the workload's op stream until `seconds` have
    passed and at least `min_ops` ops ran. expected[i] is the recorded
    digest of op i (None where the op failed when recorded)."""
    phase = PhaseResult(workload.REFERENCE)
    start = perf_counter()
    for round_ops in workload.rounds(seed):
        for op in round_ops:
            i = len(phase.outcomes)
            call = workload.prepare(ctx, op)
            if ctx.tracer is not None:
                call = ctx.tracer.op(i, op[0], call)
            want = expected[i] if expected is not None and i < len(expected) else None
            ref_s = ctx.reference.seconds(workload.REFERENCE)
            try:
                outcome = run_op(op[0], call, lambda res, op=op: workload.check(op, res), want)
            finally:
                ctx.end_op()
            outcome.ref_s = ref_s
            phase.outcomes.append(outcome)
        phase.wall_s = perf_counter() - start
        if phase.wall_s >= seconds and len(phase.outcomes) >= min_ops:
            return phase
    raise AssertionError("op streams are endless")


def regressed(outcomes, expected) -> int:
    """Ops that passed when the digests were recorded (expected[i] set) but
    now fail or print other bytes."""
    if expected is None:
        return 0
    return sum(
        o.error is not None and i < len(expected) and expected[i] is not None
        for i, o in enumerate(outcomes)
    )


def input_digest(workload, seed: int) -> str:
    """Digest of the setup inputs and the first INPUT_DIGEST_ROUNDS rounds."""
    parts = [repr(workload.setup_inputs())]
    for i, round_ops in enumerate(workload.rounds(seed)):
        if i == INPUT_DIGEST_ROUNDS:
            break
        parts.append(repr(round_ops))
    return digest("\n".join(parts))


def end_to_end(phase: PhaseResult, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict[str, float]:
    lat_ms = [t * 1000.0 for t in phase.latencies(scaled)]
    n = len(lat_ms)
    return {
        "ops_per_s": phase.ops_per_s(scaled),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": (n - phase.failed) / n,
    }


def _import_seconds(module: str, src: str) -> float:
    """Wall time of `import <module>` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], check=True, capture_output=True, text=True, timeout=60
    )
    return float(out.stdout)


def import_seconds(src: str) -> tuple[float, float]:
    """Wall time of `import digitdrift` in a fresh interpreter, and of
    `import numpy` in another one just before it, as its reference.

    A fresh interpreter's import slows down with the host far more than
    the benchmark's own reference does (dynamic loading, page faults,
    thread-pool start-up). numpy's import is most of digitdrift's and is
    not digitdrift code, so it slows down alike, and a change to
    digitdrift's imports still moves the ratio."""
    reference = _import_seconds("numpy", src)
    return _import_seconds("digitdrift", src), reference


def setup_seconds(imports, warmups, refs, scaled: bool = True) -> float:
    """Median set-up time over repetitions. imports[i] is (import time, the
    import's own reference time), warmups[i] the in-process warm-up time and
    refs[i] the benchmark's reference timings just before it."""
    if not scaled:
        return statistics.median(t + w for (t, _), w in zip(imports, warmups))
    warm_scales = scales(refs, SETUP_REFERENCE)
    return statistics.median(
        t * IMPORT_REF_S / ref + w * s for (t, ref), w, s in zip(imports, warmups, warm_scales)
    )


def provenance(root: str, seed: int, inputs: str) -> dict:
    import importlib.util

    import numpy

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        top, head = out.stdout.split()
        if out.returncode == 0 and os.path.samefile(top, root):
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "input_digest": inputs,
        "git_sha": sha,
    }


def load_digests(path: str, workload: str, seed: int):
    """Recorded per-op digests for the default seed, else None."""
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)
