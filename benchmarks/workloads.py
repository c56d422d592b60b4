"""The four benchmark workloads.

Each workload turns a seed into an endless stream of rounds (lists of op
specs), prepares one zero-argument call per op through digitdrift's public
API, and checks the op's result with an invariant that holds for every
seed. Op specs are plain tuples `(kind, *inputs)`, so their repr is the
input record that the input digest covers.

A round fixes the op mix exactly, so a run of whole rounds has the same mix
whatever its length.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

from digitdrift import cli, cltdiag, digits, exactdist, oracle

from harness import CheckFailed

GOLDEN = (5**0.5 - 1) / 2  # step of a low-discrepancy sequence on [0, 1)


def call_cli(ctx, argv):
    """cli.main(argv) in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.counters["cli.stdout_bytes"] += len(text.encode())
    return code, text


def _exit_ok(code, text):
    if code != 0:
        raise CheckFailed(f"exit code {code}: {text[-200:]!r}")


class ExactCold:
    name = "exact-cold"
    why = (
        "exact-law engine, cold: dist and verify of random r in bases 2 and 10 over "
        "a spread of digit counts, each dist writing a fresh cache"
    )
    DIGITS = {2: (24, 160), 10: (8, 64)}  # digit-count range of r per base
    STRATA = (("dist", 8), ("verify", 2))  # ops per base per round
    REFERENCE = ("interp", "mem")  # big-int and dict work, with a working set beyond the CPU caches

    def setup_inputs(self):
        return self.DIGITS, self.STRATA

    def setup(self, ctx):
        pass  # cold by design: nothing is paid once per session

    def rounds(self, seed):
        """Per base and kind, one digit count from each of n equal strata of
        the range, so every round has the same spread of sizes. Within a
        stratum the position moves by the golden ratio from round to round,
        from a seeded start, so every seed covers each stratum evenly and
        the percentiles do not depend on which sizes a seed happened to draw."""
        rnd = random.Random(f"{self.name}:{seed}")
        strata = [
            (kind, base, lo + i * (hi - lo + 1) / n, (hi - lo + 1) / n)
            for base, (lo, hi) in self.DIGITS.items()
            for kind, n in self.STRATA
            for i in range(n)
        ]
        starts = [rnd.random() for _ in strata]
        for k in itertools.count():
            ops = []
            for (kind, base, first, width), start in zip(strata, starts):
                length = int(first + (start + k * GOLDEN) % 1.0 * width)
                ops.append((kind, rnd.randrange(base ** (length - 1), base**length), base))
            rnd.shuffle(ops)
            yield ops

    def prepare(self, ctx, op):
        kind, r, base = op
        if kind == "dist":
            argv = ["dist", str(r), "--base", str(base), "--format", "json", "--cache", ctx.fresh_dir()]
        else:
            argv = ["verify", f"{r}..{r}", "--base", str(base), "--checks", "recursion,reverse,bounds"]
        return lambda: call_cli(ctx, argv)

    def check(self, op, result):
        kind, r, base = op
        code, text = result
        _exit_ok(code, text)
        if kind == "verify":
            if not text.rstrip().endswith("failures=0"):
                raise CheckFailed(f"verify reported failures: {text[-200:]!r}")
            return text
        doc = json.loads(text)
        if doc["r"] != str(r) or doc["base"] != base:
            raise CheckFailed("dist printed another r or base")
        dist = exactdist.DriftDistribution(
            base,
            r,
            doc["s_r"],
            tuple(exactdist.parse_rational(a["mass"]) for a in doc["atoms"]),
            exactdist.parse_rational(doc["tail"]),
        )
        lo, hi = exactdist.second_moment_interval(dist)
        if not lo <= exactdist.variance_exact(r, base) <= hi:
            raise CheckFailed("variance_exact outside second_moment_interval")
        return text


class CltWarm:
    name = "clt-warm"
    why = (
        "CLT diagnostics on laws served from a warm cache: ks_distance, smooth_gap, "
        "mollifier_chain_check, local_limit_gap; exactdist only reads the cache"
    )
    # base -> (repeated digit pattern, repetition counts); member = pattern * m
    FAMILIES = {
        2: ("10", (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)),
        10: ("19", (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)),
    }
    REFERENCE = ("interp",)  # per-atom Python loops and small numpy calls

    def __init__(self):
        self.cache = None

    def setup_inputs(self):
        return self.FAMILIES

    def members(self, base):
        pattern, reps = self.FAMILIES[base]
        return [int(pattern * m, base) for m in reps]

    def setup(self, ctx):
        self.cache = ctx.fresh_dir(keep=True)
        for base in self.FAMILIES:
            for r in self.members(base):
                exactdist.distribution(r, base, cache_dir=self.cache)

    def rounds(self, seed):
        """Every family member once per round, in random order, each with a
        random shift t, width eps and local-limit point d."""
        rnd = random.Random(f"{self.name}:{seed}")
        while True:
            ops = []
            for base in self.FAMILIES:
                for r in self.members(base):
                    s_r, length = digits.int_digit_sum(r, base), len(digits.expand(r, base).digits)
                    d = s_r - rnd.randrange(length + 1) * (base - 1)  # a support point
                    t = round(rnd.uniform(-2.5, 2.5), 6)
                    eps = round(rnd.uniform(0.05, 0.5), 6)
                    ops.append(("clt", r, base, t, eps, d))
            rnd.shuffle(ops)
            yield ops

    def prepare(self, ctx, op):
        _, r, base, t, eps, d = op
        cache = self.cache

        def call():
            dist = exactdist.distribution(r, base, cache_dir=cache)
            ks = cltdiag.ks_distance(dist)
            gaps = [cltdiag.smooth_gap(dist, h) for h in ("cubic", "sin", ("mollifier", t, eps))]
            chain = cltdiag.mollifier_chain_check(dist, eps)
            local = [cltdiag.local_limit_gap(r, d, dist=dist)] if base == 2 else []
            return ks, gaps, chain, local

        return call

    def check(self, op, result):
        (ks_lo, ks_hi), gaps, chain, local = result
        if not ks_lo <= ks_hi:
            raise CheckFailed(f"ks bracket inverted: {ks_lo} > {ks_hi}")
        if not chain.holds:
            raise CheckFailed(f"mollifier chain broken: {chain}")
        values = [ks_lo, ks_hi, *gaps, chain.ks_hi, chain.smooth_sup, chain.slack, *local]
        # 12 significant digits, the precision the CLI prints floats with
        return " ".join(format(v, ".12g") for v in values)


class OracleSweep:
    name = "oracle-sweep"
    why = (
        "counting oracle: check_enclosures of small r, grouped by base to reuse "
        "the digit-sum table; base 200 exposes the uint8 table wrap"
    )
    # (base, tower level, r drawn from 1..r_max-1, ops per round)
    GROUPS = ((2, 22, 4096, 8), (10, 6, 10000, 6), (200, 2, 40000, 2))
    REFERENCE = ("mem",)  # numpy passes over 8-10 MB tables

    def setup_inputs(self):
        return self.GROUPS

    def setup(self, ctx):
        for base, level, _, _ in self.GROUPS:
            oracle.digit_sum_table(base ** (level + 1), base)

    def rounds(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        while True:
            yield [
                ("certify", rnd.randrange(1, r_max), base, level)
                for base, level, r_max, count in self.GROUPS
                for _ in range(count)
            ]

    def prepare(self, ctx, op):
        _, r, base, level = op

        def call():
            dist = exactdist.distribution(r, base)
            return dist, oracle.check_enclosures(dist, level)

        return call

    def check(self, op, result):
        dist, violations = result
        if violations:
            raise CheckFailed(f"{len(violations)} enclosure violations, first {violations[0]}")
        return ",".join(exactdist.rational_str(m) for m in dist.atoms)


class CliSampling:
    name = "cli-sampling"
    why = (
        "sampler through the CLI: phi on (10)^16 in base 2 and simulate --process "
        "on 5900991, a new --seed per op; rng, odometer and mixing dominate"
    )
    PHI = ["phi", "10" * 16, "--radix-input", "--base", "2", "--k", "3,4", "--p", "1,4", "--samples", "5000"]
    SIMULATE = ["simulate", "5900991", "--samples", "50000", "--process"]
    ROUND = ("phi", "simulate", "simulate", "simulate")
    REFERENCE = ("interp", "mem")  # numpy over MB-sized matrices plus Python loops

    def setup_inputs(self):
        return self.PHI, self.SIMULATE

    def setup(self, ctx):
        pass  # every op pays its own sampling; there is no session warm-up

    def rounds(self, seed):
        rnd = random.Random(f"{self.name}:{seed}")
        while True:
            yield [(kind, rnd.randrange(2**31)) for kind in self.ROUND]

    def prepare(self, ctx, op):
        kind, op_seed = op
        if kind == "phi":
            argv = self.PHI + ["--seed", str(op_seed)]
        else:
            argv = self.SIMULATE + ["--seed", str(op_seed), "--cache", ctx.fresh_dir()]
        return lambda: call_cli(ctx, argv)

    def check(self, op, result):
        code, text = result
        _exit_ok(code, text)
        if op[0] == "phi":
            rows = text.splitlines()[1:]
            if len(rows) != 4 or any(row.rsplit(",", 1)[1] != "False" for row in rows):
                raise CheckFailed(f"phi rows violated or missing: {rows}")
        else:
            for line in (
                "carry identity holds for all samples: True",
                "sum(X_i) == delta for all samples: True",
            ):
                if line not in text:
                    raise CheckFailed(f"simulate output lacks {line!r}")
        return text


WORKLOADS = {w.name: w for w in (ExactCold, CltWarm, OracleSweep, CliSampling)}
