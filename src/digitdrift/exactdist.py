"""Exact rational computation of the drift distribution, its moments and
variance.

Everything here is exact: atom masses come out of an integer dynamic
program over the digit chain of r, and variance out of the matching
two-value recursion. Floats never enter.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from math import isqrt

from .digits import check_base, expand, int_digit_sum, rho_lambda
from .errors import (
    NotSingleBlock,
    TailBoundUnavailable,
    ZeroHasNoBlocks,
)

DEFAULT_TAIL_EPS = Fraction(1, 10**30)


def rational_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def lattice_point(s_r: int, k: int, base: int) -> int:
    """k-th possible drift value: s(r) - k*(b-1), k = carry count."""
    return s_r - k * (base - 1)


@dataclass(frozen=True)
class DriftDistribution:
    """Exact atom masses of the drift law of r, plus the exact leftover tail.

    Atom k sits at d = s_r - k*(base-1). tail_mass is 1 minus the sum of the
    stored atoms, so total mass is conserved by construction.
    """

    base: int
    r: int
    s_r: int
    atoms: tuple[Fraction, ...]  # index k -> mass
    tail_mass: Fraction

    def __post_init__(self):
        if any(m < 0 for m in self.atoms) or self.tail_mass < 0:
            raise AssertionError("negative mass: distribution recursion is broken")

    @property
    def tail_index(self) -> int:
        return len(self.atoms)

    def position(self, k: int) -> int:
        return lattice_point(self.s_r, k, self.base)

    def items(self):
        """(d, mass) pairs, k ascending (d descending)."""
        for k, m in enumerate(self.atoms):
            yield self.position(k), m

    def mass_at(self, d: int) -> Fraction:
        q, rem = divmod(self.s_r - d, self.base - 1)
        if rem != 0 or q < 0 or q >= len(self.atoms):
            return Fraction(0)
        return self.atoms[q]

    def digit_count_r(self) -> int:
        return len(expand(self.r, self.base).digits)

    def to_json_doc(self) -> dict:
        return {
            "base": self.base,
            "r": str(self.r),
            "s_r": self.s_r,
            "atoms": [
                {"k": k, "mass": rational_str(m)} for k, m in enumerate(self.atoms)
            ],
            "tail": rational_str(self.tail_mass),
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "DriftDistribution":
        atoms = [Fraction(0)] * len(doc["atoms"])
        for entry in doc["atoms"]:
            atoms[entry["k"]] = parse_rational(entry["mass"])
        return cls(
            base=doc["base"],
            r=int(doc["r"]),
            s_r=doc["s_r"],
            atoms=tuple(atoms),
            tail_mass=parse_rational(doc["tail"]),
        )


def unit_atom_mass(k: int, base: int) -> Fraction:
    """Closed-form mass of the r = 1 drift law at lattice index k:
    1/b**k - 1/b**(k+1)."""
    check_base(base)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(base - 1, base ** (k + 1))


def _carry_numerators(r: int, base: int, K: int) -> tuple[list[int], int]:
    """Numerators of the drift-law atoms 0..K of r (atom k: x + r makes k
    carries), with their common denominator b**(K+1+L), L the digit count.

    F is the carry-count law of x + u and G that of x + u plus a carry-in,
    for u = r // b**i. They start at u = 0 (G is then the law of r = 1) and
    take the digits delta of r most significant first: the low digit of x
    carries with probability delta/b in F and (delta+1)/b in G, and a carry
    shifts the carry count of the digits above by one (yG).
    """
    b = base
    F = [b ** (K + 1)] + [0] * K
    G = [(b - 1) * b ** (K - k) for k in range(K + 1)]
    digits = expand(r, b).digits
    for delta in reversed(digits):
        yG = [0] + G[:-1]
        F, G = (
            [(b - delta) * f + delta * g for f, g in zip(F, yG)],
            [(b - delta - 1) * f + (delta + 1) * g for f, g in zip(F, yG)],
        )
    return F, b ** (K + 1 + len(digits))


def atom_mass(r: int, base: int, d: int) -> Fraction:
    """Exact mass of the drift law of r at the integer d."""
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    s_r = int_digit_sum(r, base)
    q, rem = divmod(s_r - d, base - 1)
    if rem != 0 or q < 0:
        return Fraction(0)  # off-lattice or above the top atom
    nums, den = _carry_numerators(r, base, q)
    return Fraction(nums[q], den)


def default_atom_cutoff(r: int, base: int, tail_eps: Fraction) -> int:
    """K = digit count of r plus enough lattice steps for tail <= tail_eps."""
    L = len(expand(r, base).digits)
    extra = 0
    bound = Fraction(1, base)  # tail after K = L + j is <= b**-(j+1)
    while bound > tail_eps:
        bound /= base
        extra += 1
    return L + extra


def distribution(
    r: int,
    base: int,
    atoms: int | None = None,
    tail_eps: Fraction = DEFAULT_TAIL_EPS,
    cache_dir: str | None = None,
) -> DriftDistribution:
    """Exact atoms 0..K of the drift law of r, with the exact tail mass.

    K is `atoms` when given, otherwise the default cutoff for `tail_eps`.
    With cache_dir set, results are read from / written to the JSON cache.
    """
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if atoms is not None:
        K = atoms
        if K < 0:
            raise ValueError("atom count must be nonnegative")
    else:
        K = default_atom_cutoff(r, base, tail_eps)
    if cache_dir is not None:
        cached = load_cached_distribution(base, r, K, cache_dir)
        if cached is not None:
            return cached
    nums, den = _carry_numerators(r, base, K)
    dist = DriftDistribution(
        base,
        r,
        int_digit_sum(r, base),
        tuple(Fraction(n, den) for n in nums),
        Fraction(den - sum(nums), den),
    )
    if cache_dir is not None:
        save_cached_distribution(dist, cache_dir)
    return dist


# --- certified tail bounds ------------------------------------------------


def carry_tail_probability_bound(k: int, digit_count: int, base: int) -> Fraction:
    """Upper bound on P(carry count >= k).

    Carries past the top digit of r each need one more digit of x equal to
    b-1, independently with probability 1/b. Trivial (=1) while k is at most
    the digit count.
    """
    if k <= digit_count:
        return Fraction(1)
    return Fraction(1, base ** (k - digit_count))


def _geom_power_sum(p: int, M: int, y: Fraction) -> Fraction:
    """Sum over k >= M of k**p * y**k, exactly, for p in 0..3."""
    a0 = 1 / (1 - y)
    a1 = y / (1 - y) ** 2
    a2 = y * (1 + y) / (1 - y) ** 3
    a3 = y * (1 + 4 * y + y * y) / (1 - y) ** 4
    a = [a0, a1, a2, a3]
    # shift: sum_{k>=M} k^p y^k = y^M * sum_j (j+M)^p y^j
    total = Fraction(0)
    for j in range(p + 1):
        total += math.comb(p, j) * Fraction(M) ** (p - j) * a[j]
    return y**M * total


def tail_abs_moment_bound(dist: DriftDistribution, power: int) -> Fraction:
    """Certified bound on sum over k > K of |d_k|**power * mass_k.

    Requires K >= digit count of r so every tail atom sits at d < 0 and the
    geometric carry bound applies. power in 0..3.
    """
    if not 0 <= power <= 3:
        raise ValueError("power must be in 0..3")
    if dist.r == 0:
        return Fraction(0)
    b = dist.base
    L = dist.digit_count_r()
    K = len(dist.atoms) - 1
    if K < L:
        raise TailBoundUnavailable(
            f"atom cutoff K={K} is below the digit count {L} of r"
        )
    y = Fraction(1, b)
    M = K + 1
    s_r = dist.s_r
    # |d_k| = k*(b-1) - s_r for k > K >= L; expand the power binomially.
    total = Fraction(0)
    for j in range(power + 1):
        coeff = math.comb(power, j) * (b - 1) ** j * (-s_r) ** (power - j)
        total += coeff * _geom_power_sum(j, M, y)
    return total * b**L


def mean_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval certain to contain the mean of the drift law."""
    if dist.r == 0:
        return (Fraction(0), Fraction(0))
    center = sum(Fraction(d) * m for d, m in dist.items())
    t1 = tail_abs_moment_bound(dist, 1)
    return (center - t1, center + t1)


def second_moment_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval containing the second moment (= variance, zero mean)."""
    if dist.r == 0:
        return (Fraction(0), Fraction(0))
    partial = sum(Fraction(d) ** 2 * m for d, m in dist.items())
    t2 = tail_abs_moment_bound(dist, 2)
    return (partial, partial + t2)


# --- variance --------------------------------------------------------------


def variance_exact(r: int, base: int) -> Fraction:
    """Exact variance of the drift law, by the one-digit recursion.

    Integer numerators over base**depth; the two chain values are the
    variances of (r // b**i, r // b**i + 1).
    """
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    b = base
    nlo, nhi = 0, b  # Var(0), Var(1) at denominator b**0
    pw = 1  # b**t
    for delta in reversed(expand(r, b).digits):
        pw *= b
        nlo, nhi = (
            (b - delta) * nlo + delta * nhi + delta * (b - delta) * pw,
            (b - delta - 1) * nlo
            + (delta + 1) * nhi
            + (delta + 1) * (b - delta - 1) * pw,
        )
    return Fraction(nlo, pw)


def variance_range(limit: int, base: int) -> list[Fraction]:
    """Variances for every r in 0..limit, by an ascending sieve."""
    check_base(base)
    out = [Fraction(0)] * (limit + 1)
    if limit >= 1:
        out[1] = Fraction(base)
    for r in range(2, limit + 1):
        rt, r0 = divmod(r, base)
        if r0 == 0:
            out[r] = out[rt]
        else:
            out[r] = (
                Fraction(base - r0, base) * out[rt]
                + Fraction(r0, base) * out[rt + 1]
                + r0 * (base - r0)
            )
    return out


def variance_single_block(kind: str, param: int, base: int) -> Fraction:
    """Closed-form variance when r is one block (up to trailing zeros).

    kind "digit": param is the digit value, Var = v*(1+b-v).
    kind "max_run": param is the run length m of (b-1)'s, Var = 2b - 2/b**(m-1).
    """
    check_base(base)
    if kind == "digit":
        if not 1 <= param <= base - 1:
            raise NotSingleBlock(f"digit {param} not in [1, {base - 1}]")
        return Fraction(param * (1 + base - param))
    if kind == "max_run":
        if param < 1:
            raise NotSingleBlock("run length must be >= 1")
        return 2 * base - Fraction(2, base ** (param - 1))
    raise NotSingleBlock(f"unknown block kind {kind!r}")


def variance_trailing_max_run(rhat: int, m: int, base: int) -> Fraction:
    """Variance of the drift law of b**m * rhat + b**m - 1 (a run of m
    top digits on the right of rhat)."""
    check_base(base)
    if m < 1:
        raise ValueError("m must be >= 1")
    bm = Fraction(1, base**m)
    return (
        bm * variance_exact(rhat, base)
        + (1 - bm) * variance_exact(rhat + 1, base)
        + base
        - Fraction(1, base ** (m - 1))
    )


def variance_trailing_unit(rhat: int, m: int, base: int) -> Fraction:
    """Variance of the drift law of b**m * rhat + 1 (units digit 1, then
    m-1 zeros, then rhat)."""
    check_base(base)
    if m < 1:
        raise ValueError("m must be >= 1")
    bm = Fraction(1, base**m)
    return (
        (1 - bm) * variance_exact(rhat, base)
        + bm * variance_exact(rhat + 1, base)
        + base
        - Fraction(1, base ** (m - 1))
    )


@dataclass(frozen=True)
class VarianceReport:
    r: int
    base: int
    variance: Fraction
    rho: int
    lam: int
    lower_bound: Fraction  # b/4 * rho
    upper_bound: Fraction  # 2*b**2 * rho
    lambda_lower: Fraction  # b/4 * lambda
    lambda_upper: Fraction  # b**2 * lambda

    @property
    def all_bounds_hold(self) -> bool:
        return (
            self.lower_bound <= self.variance <= self.upper_bound
            and self.lambda_lower <= self.variance <= self.lambda_upper
        )


def check_variance_bounds(r: int, base: int) -> VarianceReport:
    """Exact comparison of the variance against its block-count sandwich."""
    check_base(base)
    if r < 1:
        raise ZeroHasNoBlocks("variance bounds need r >= 1")
    rho, lam = rho_lambda(r, base)
    var = variance_exact(r, base)
    return VarianceReport(
        r=r,
        base=base,
        variance=var,
        rho=rho,
        lam=lam,
        lower_bound=Fraction(base, 4) * rho,
        upper_bound=Fraction(2 * base * base) * rho,
        lambda_lower=Fraction(base, 4) * lam,
        lambda_upper=Fraction(base * base) * lam,
    )


def std_dev(r: int, base: int, precision_bits: int = 53) -> Fraction:
    """Square root of the exact variance, within 2**-precision_bits.

    Returned as a Fraction underestimate: result <= sqrt(Var) < result +
    2**-precision_bits.
    """
    var = variance_exact(r, base)
    n, d = var.numerator, var.denominator
    scale = 1 << precision_bits
    return Fraction(isqrt(n * d * scale * scale), d * scale)


# --- distribution cache -----------------------------------------------------


def cache_key(base: int, r: int, K: int) -> str:
    digest = sha256(f"{base}:{r}:{K}".encode()).hexdigest()[:20]
    return f"dist_b{base}_K{K}_{digest}.json"


def load_cached_distribution(
    base: int, r: int, K: int, cache_dir: str
) -> DriftDistribution | None:
    path = os.path.join(cache_dir, cache_key(base, r, K))
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["base"] != base or int(doc["r"]) != r or len(doc["atoms"]) != K + 1:
            return None  # hash collision or stale file; recompute
        dist = DriftDistribution.from_json_doc(doc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, AssertionError):
        return None  # truncated, unparseable or negative-mass file; recompute and overwrite
    if dist.s_r != int_digit_sum(r, base):
        return None  # a wrong s(r) would shift every lattice position
    return dist


def save_cached_distribution(dist: DriftDistribution, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(dist.base, dist.r, len(dist.atoms) - 1))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(dist.to_json_doc(), fh)
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
