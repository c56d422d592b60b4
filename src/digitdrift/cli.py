"""Command-line front end.

Verbs: dist, blocks, verify, simulate, clt, phi. Exit codes: 0 success,
1 invariant or bound violation, 2 usage/validation error. All output is
deterministic given the flags (and the seed where sampling is involved).
"""
from __future__ import annotations

import argparse
import dataclasses
import decimal
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from . import cltdiag, exactdist, mixing, odometer, oracle
from .digits import _block_prefixes, check_base, decompose_blocks, digits_value, expand
from .digits import reverse_expansion, rho_lambda
from .errors import DigitDriftError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def cache_dir_default() -> str:
    return os.environ.get("DIGITDRIFT_CACHE", os.path.join(".", "cache"))


def _clip(text: str) -> str:
    """repr of text for an error message, cut to its first 40 characters."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def parse_digits(text: str, base: int) -> list[int]:
    """Base-b digits, most-significant first, in the format Expansion
    prints: dot-separated when the text holds a dot, else one per character."""
    check_base(base)  # a base below 2 is at fault before any digit
    parts = text.split(".") if "." in text else list(text)
    try:
        digits = [int(p) for p in parts]
    except ValueError:
        digits = [-1]
    if not digits or any(not 0 <= d < base for d in digits):
        raise UsageError(f"invalid base-{base} digit string {_clip(text)}")
    return digits


def parse_r(text: str, base: int, radix_input: bool) -> int:
    if radix_input:
        return digits_value(parse_digits(text, base), base)
    try:
        v = int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse r {_clip(text)}") from exc
    if v < 0:
        raise UsageError("r must be nonnegative")
    return v


def fmt_rational(q: Fraction) -> str:
    return f"{exactdist.rational_str(q)} ({float(q):.15g})"


def _atom_rows(dist):
    """(k, d, reduced mass "n/d", its float) for each stored atom of dist,
    read from its integers: one gcd per atom and no Fraction."""
    nums, den = dist._numerators
    for k, n in enumerate(nums):
        g = math.gcd(n, den)
        n, d = n // g, den // g
        yield k, dist.position(k), f"{n}/{d}", n / d


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


# --- dist --------------------------------------------------------------------


def cmd_dist(args) -> int:
    check_base(args.base)  # a base below 2 is at fault before r
    r = parse_r(args.r, args.base, args.radix_input)
    if args.atoms is not None and args.atoms < 1:
        raise UsageError("--atoms must be >= 1")
    cutoff = None if args.atoms is None else args.atoms - 1
    dist = exactdist.distribution(r, args.base, atoms=cutoff, cache_dir=args.cache)
    var = exactdist.variance_exact(r, args.base)
    sigma = exactdist._sqrt_below(var)  # std_dev(r, base), without a second variance
    try:
        lo, hi = exactdist.mean_interval(dist)
        mean_txt = (exactdist.rational_str(lo), exactdist.rational_str(hi))
    except DigitDriftError:
        mean_txt = None
    header = {
        "r": str(r),
        "base": args.base,
        "s_r": dist.s_r,
        "variance": exactdist.rational_str(var),
        "sigma": float(sigma),
        "tail": exactdist.rational_str(dist.tail_mass),
        "atom_count": len(dist._numerators[0]),
        "mean_interval": mean_txt,
    }
    if r >= 1:
        header["rho"], header["lambda"] = rho_lambda(r, args.base)
    if args.format == "json":
        # the text of json.dumps(header + atoms, indent=2), with the atoms
        # written here: an indent sends json to its pure-Python encoder. A
        # mass is digits and "/", a decimal a finite float, which json
        # writes as its repr, and the atom list is never empty
        atoms = ",\n".join(
            f'    {{\n      "k": {k},\n      "d": {d},\n'
            f'      "mass": "{mass}",\n'
            f'      "decimal": {x!r}\n    }}'
            for k, d, mass, x in _atom_rows(dist)
        )
        print(f'{json.dumps(header, indent=2)[:-2]},\n  "atoms": [\n{atoms}\n  ]\n}}')
    elif args.format == "csv":
        print("k,d,mass,decimal")
        for k, d, mass, x in _atom_rows(dist):
            print(f"{k},{d},{mass},{x:.15g}")
    else:
        print(f"r = {r}  base = {args.base}  digits = {expand(r, args.base)}")
        extra = f"  rho = {header.get('rho')}  lambda = {header.get('lambda')}" if r >= 1 else ""
        print(f"s(r) = {dist.s_r}{extra}")
        print(f"variance = {fmt_rational(var)}")
        print(f"sigma ~= {float(sigma):.15g}")
        print(f"atoms (K = {header['atom_count'] - 1}):")
        print("  k    d     mass")
        for k, d, mass, x in _atom_rows(dist):
            print(f"  {k:<4d} {d:<5d} {mass} ({x:.15g})")
        print(f"tail = {fmt_rational(dist.tail_mass)}")
        if mean_txt is not None:
            print(f"mean interval = [{mean_txt[0]}, {mean_txt[1]}] (contains 0)")
    return EXIT_OK


# --- blocks ------------------------------------------------------------------


def cmd_blocks(args) -> int:
    r = parse_r(args.r, args.base, args.radix_input)
    if r < 1:
        raise UsageError("r = 0 has no blocks")
    e = expand(r, args.base)
    dec = decompose_blocks(e)
    print(f"r = {r}  base = {args.base}  digits = {e}")
    print(f"rho = {dec.rho}  lambda = {dec.lam}")
    for blk in dec.blocks:
        print(
            f"  {blk.kind.value:<7s} digit={blk.digit} length={blk.length} "
            f"lsb_position={blk.position}"
        )
    # exact Decimal sums, printed one at a time: str() of a big int is
    # quadratic, and a line of all the prefixes would be held at once
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        prefixes = _block_prefixes(dec, decimal.Decimal(1))
        print("prefix integers:", next(prefixes), end="")
        for t in prefixes:
            print(",", t, end="")
    print(f"\nreverse(r) = {reverse_expansion(e).value()}")
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _verify_r_values(args) -> list[int] | range:
    if args.random is not None:
        if args.digits is None:
            raise UsageError("--random needs --digits")
        if args.random < 0:
            raise UsageError("--random must be >= 0")
        if args.digits < 1:
            raise UsageError("--digits must be >= 1")
        rnd = random.Random(0)
        vals = []
        for _ in range(args.random):
            digits = [rnd.randrange(1, args.base)] + [
                rnd.randrange(args.base) for _ in range(args.digits - 1)
            ]
            vals.append(digits_value(digits, args.base))
        return vals
    if args.range is None:
        raise UsageError("give a range A..B or --random COUNT --digits D")
    try:
        a, b = args.range.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad range {args.range!r}") from exc
    if lo > hi:
        raise UsageError("empty range")
    if lo < 1:
        raise UsageError("r = 0 has no blocks; ranges start at 1")
    return range(lo, hi + 1)  # lazy: 1..10**9 holds no list of 10**9 ints


def _check_recursion(r: int, base: int) -> list[str]:
    """One-digit recursion identity at random on-lattice points."""
    failures = []
    rnd = random.Random(r)  # keyed per r
    ks = [rnd.randrange(0, 2 * expand(r, base).digit_count() + 2) for _ in range(3)]
    rt, r0 = divmod(r, base)
    # the points read from rt and rt + 1 sit at carry index k and k-1-(trailing
    # b-1 digits of rt), so max(ks) atoms cover all three laws
    law, law_lo, law_hi = (
        exactdist.distribution(u, base, atoms=max(ks)) for u in (r, rt, rt + 1)
    )
    for k in ks:
        d = law.position(k)
        lhs = law.mass_at(d)
        rhs = Fraction(base - r0, base) * law_lo.mass_at(d - r0) + Fraction(
            r0, base
        ) * law_hi.mass_at(d + base - r0)
        if lhs != rhs:
            failures.append(f"recursion r={r} d={d}: {lhs} != {rhs}")
    return failures


def _check_reverse(r: int, base: int) -> list[str]:
    rev = reverse_expansion(expand(r, base)).value()
    k_max = min(40, exactdist.default_atom_cutoff(r, base, exactdist.DEFAULT_TAIL_EPS))
    (na, da), (nb, db) = (
        exactdist.distribution(u, base, atoms=k_max)._numerators for u in (r, rev)
    )
    # cross-multiplied: rev has fewer digits than r when r ends in zeros
    bad = next((k for k in range(k_max + 1) if na[k] * db != nb[k] * da), None)
    if bad is not None:
        return [
            f"reverse r={r} rev={rev} atom k={bad}: "
            f"{Fraction(na[bad], da)} != {Fraction(nb[bad], db)}"
        ]
    return []


def _check_bounds(r: int, base: int) -> list[str]:
    rep = exactdist.check_variance_bounds(r, base)
    if not rep.all_bounds_hold:
        return [
            f"bounds r={r}: var={rep.variance} rho={rep.rho} lambda={rep.lam} "
            f"[{rep.lower_bound}, {rep.upper_bound}] / [{rep.lambda_lower}, {rep.lambda_upper}]"
        ]
    return []


def _check_enclosure(r: int, base: int, level: int | None) -> list[str]:
    if level is None:
        level = 0
        while base ** (level + 1) < max(4096 * r, 2**16):
            level += 1
    dist = exactdist.distribution(r, base)
    return [
        f"enclosure r={v.r} k={v.k} d={v.d}: mass={v.mass} not in [{v.lo}, {v.hi}]"
        for v in oracle.check_enclosures(dist, level)
    ]


def cmd_verify(args) -> int:
    check_base(args.base)  # before --random draws digits or a level is searched
    r_values = _verify_r_values(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"recursion", "reverse", "bounds", "enclosure"}
    unknown = set(checks) - known
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise UsageError("--checks names no check")

    failures = []
    for r in r_values:
        if "recursion" in checks:
            failures += _check_recursion(r, args.base)
        if "reverse" in checks:
            failures += _check_reverse(r, args.base)
        if "bounds" in checks:
            failures += _check_bounds(r, args.base)
        if "enclosure" in checks:
            failures += _check_enclosure(r, args.base, args.level)
    for line in failures:
        print("FAIL", line)
    print(
        f"verify: {len(r_values)} values, checks={','.join(checks)}, "
        f"failures={len(failures)}"
    )
    return EXIT_OK if not failures else EXIT_VIOLATION


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    r = parse_r(args.r, args.base, args.radix_input)
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.process and r < 1:
        raise UsageError("--process needs r >= 1")
    n = args.samples
    # one digit matrix serves the drift draws and the per-block process; it
    # is drawn first because it validates the base before anything is cached
    digits = odometer.sample_digit_matrix(r, args.base, n, args.seed)
    dist = exactdist.distribution(r, args.base, cache_dir=args.cache)
    delta, carries = odometer.drift_from_digits(digits, r, args.base)
    print(f"r = {r}  base = {args.base}  samples = {n}  seed = {args.seed}")
    # drift_from_digits computes delta as s(r) - (b-1)·carries, so it holds
    print("carry identity holds for all samples: True")
    counts = np.bincount(carries)
    print("  k    d     count     empirical      exact          z")
    worst = 0.0
    for k in range(len(counts)):
        mf = float(dist.mass_at(dist.position(k)))
        se = math.sqrt(mf * (1 - mf) / n) if 0 < mf < 1 else float("nan")
        z = (counts[k] / n - mf) / se if se and not math.isnan(se) else 0.0
        worst = max(worst, abs(z))
        print(
            f"  {k:<4d} {dist.position(k):<5d} {int(counts[k]):<9d} "
            f"{counts[k] / n:<13.6g} {mf:<14.6g} {z:+.2f}"
        )
    print(f"max |z| = {worst:.2f}")
    if args.process:
        X = mixing.process_from_digits(digits, r, args.base)
        totals = X.sum(axis=1)
        exact_match = bool(np.all(totals == delta))
        # equal draw by draw is equal as multisets
        same = exact_match or bool(np.array_equal(np.sort(totals), np.sort(delta)))
        print(f"process: lambda = {X.shape[1]}, sum(X_i) == delta for all samples: {exact_match}")
        print(f"process totals histogram identical to drift histogram: {same}")
        means = X.mean(axis=0)
        print("per-block means:", " ".join(f"{v:+.4f}" for v in means))
        if not exact_match:
            return EXIT_VIOLATION
    return EXIT_OK


# --- clt ---------------------------------------------------------------------


def pattern_family(pattern: str, reps: list[int], base: int) -> list[int]:
    """The values of pattern's digits repeated m times, for each m in reps."""
    digits = parse_digits(pattern, base)
    return [digits_value(digits * m, base) for m in reps]


_RATE_FIELDS = [f.name for f in dataclasses.fields(cltdiag.RateRow)]
RATE_COLUMNS = ["lambda" if name == "lam" else name for name in _RATE_FIELDS]


def _rate_cell(value) -> str:
    if isinstance(value, Fraction):
        return exactdist.rational_str(value)
    return fmt_float(value) if isinstance(value, float) else str(value)


def _rate_row_cells(row) -> list[str]:
    return [_rate_cell(getattr(row, name)) for name in _RATE_FIELDS]


def cmd_clt(args) -> int:
    if args.out and os.path.splitext(args.out)[1] == ".json":
        raise UsageError(f"--out {args.out!r} is its own JSON twin; give a CSV path")
    if not args.family:
        raise UsageError("need --family")
    try:
        pattern, reps_txt = args.family.split("@")
        reps = [int(x) for x in reps_txt.split(",") if x]
    except ValueError as exc:
        raise UsageError("family syntax: PATTERN@m1,m2,...") from exc
    if not reps:
        raise UsageError("empty family")
    if min(reps) < 1:
        raise UsageError("repetition counts must be >= 1")
    members = pattern_family(pattern, reps, args.base)
    if min(members) < 1:
        raise UsageError(f"--family {args.family!r} holds a member below 1")
    report = cltdiag.rate_report(members, args.base, cache_dir=args.cache)
    lines = [",".join(RATE_COLUMNS)]
    lines += [",".join(_rate_row_cells(row)) for row in report.rows]
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        json_path = os.path.splitext(args.out)[0] + ".json"
        rows_json = [
            dict(zip(RATE_COLUMNS, _rate_row_cells(row))) for row in report.rows
        ]
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(rows_json, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write {exc.filename!r}: {exc.strerror}") from exc
        print(f"wrote {args.out} and {json_path}")
    else:
        sys.stdout.write(csv_text)
    min_rho, cap = cltdiag.RATE_MIN_RHO, cltdiag.RATE_RATIO_CAP
    ks_ratio = report.column_ratio("ks_times_rho_eighth")
    gap_ratio = report.column_ratio("smooth_gap_times_sqrt_rho")
    print(f"ks_times_rho_eighth max/min (rho >= {min_rho}): {fmt_float(ks_ratio)}")
    print(f"smooth_gap_times_sqrt_rho max/min (rho >= {min_rho}): {fmt_float(gap_ratio)}")
    blow_up = False
    for name, ratio in (("ks", ks_ratio), ("gap", gap_ratio)):
        if not math.isnan(ratio) and ratio > cap:
            print(f"column {name} exceeded the ratio cap {cap}")
            blow_up = True
    return EXIT_VIOLATION if blow_up else EXIT_OK


# --- phi ---------------------------------------------------------------------


def cmd_phi(args) -> int:
    r = parse_r(args.r, args.base, args.radix_input)
    if r < 1:
        raise UsageError("phi needs r >= 1")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    try:
        ks = [int(x) for x in args.k.split(",") if x]
        ps = [int(x) for x in args.p.split(",") if x]
    except ValueError as exc:
        raise UsageError("--k and --p take comma lists of integers") from exc
    if not ks or not ps:
        raise UsageError("empty --k or --p")
    if min(ks + ps) < 1:
        raise UsageError("--k and --p must be >= 1")
    _, lam = rho_lambda(r, args.base)
    if lam <= max(ks) + 1:
        raise UsageError(
            f"lambda(r) = {lam} too small for max gap {max(ks)} (need > max k + 1)"
        )
    if max(ks) + max(ps) > lam:
        raise UsageError(
            f"lambda(r) = {lam} leaves no block past the gap for max k + max p = "
            f"{max(ks) + max(ps)} (need <= lambda)"
        )
    X = mixing.process_matrix(r, args.base, args.samples, args.seed)
    # every estimate before any output, so an error leaves stdout empty
    ests = mixing.estimate_phi_grid(r, args.base, ks, ps, X)
    print("r,base,k,p,family_id,estimate,ci,bound,violated")
    for est in ests:
        print(
            f"{r},{args.base},{est.k},{est.p},{est.event_family},"
            f"{fmt_float(est.estimate)},{fmt_float(est.ci)},"
            f"{fmt_float(est.bound)},{est.violated}"
        )
    return EXIT_VIOLATION if any(est.violated for est in ests) else EXIT_OK


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="digitdrift",
        description="Exact digit-sum drift distributions, simulation and "
        "normal-approximation diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, r_arg=True):
        if r_arg:
            p.add_argument("r", help="nonnegative integer (decimal)")
            p.add_argument(
                "--radix-input",
                action="store_true",
                help="read r as a base-b digit string, most-significant first",
            )
        p.add_argument("--base", type=int, default=10)

    p = sub.add_parser("dist", help="exact atoms, variance and moments")
    add_common(p)
    p.add_argument(
        "--atoms",
        type=int,
        default=None,
        help="number of atoms (cutoff K = N-1); by default the tail is at most 10^-30",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("blocks", help="block decomposition of r")
    add_common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("verify", help="invariant sweeps over a range of r")
    p.add_argument("range", nargs="?", default=None, help="inclusive range A..B")
    add_common(p, r_arg=False)
    p.add_argument("--random", type=int, default=None, help="count of random r")
    p.add_argument("--digits", type=int, default=None, help="digit count for --random")
    p.add_argument("--checks", default="recursion,reverse,bounds")
    p.add_argument("--level", type=int, default=None, help="tower level for enclosure")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="sampled drift histogram vs exact atoms")
    add_common(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--process", action="store_true", help="also sample per-block values")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("clt", help="rate table over a family of r")
    add_common(p, r_arg=False)
    p.add_argument("--family", default=None, help="PATTERN@m1,m2,... repeated pattern")
    p.add_argument("--out", default=None, help="CSV output path (JSON twin alongside)")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("phi", help="empirical mixing estimates vs the bound")
    add_common(p)
    p.add_argument("--k", default="3,4,5,6", help="comma list of gaps")
    p.add_argument("--p", default="1", help="comma list of past lengths")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_phi)

    return ap


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "cache", "") is None:  # the parser outlives DIGITDRIFT_CACHE
        args.cache = cache_dir_default()
    # r crosses text only here: read and print it at any digit count, and
    # leave Python's int <-> str limit as it was for everyone else
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (UsageError, DigitDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
