"""Exact rational computation of the drift distribution, its moments and
variance.

Everything here is exact: atom masses come out of an integer dynamic
program over the digit chain of r, and variance out of the matching
two-value recursion. Floats never enter, except for one derived cache:
`DriftDistribution.normalized_support`, the float view `cltdiag` reads.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from math import isqrt

import numpy as np

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

    def position(self, k: int) -> int:
        """k-th possible drift value: s(r) - k*(b-1), k = carry count (an
        int, or elementwise an int array)."""
        return self.s_r - k * (self.base - 1)

    def items(self):
        """(d, mass) pairs, k ascending (d descending)."""
        for k, m in enumerate(self.atoms):
            yield self.position(k), m

    def mass_at(self, d: int) -> Fraction:
        q, rem = divmod(self.s_r - d, self.base - 1)
        if rem != 0 or q < 0 or q >= len(self.atoms):
            return Fraction(0)
        return self.atoms[q]

    @cached_property
    def normalized_support(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions d/sigma, masses) as read-only float arrays, positions
        ascending; the zero-variance case (r = 0) is a unit mass at 0.

        A derived cache, built on first use and only read by `cltdiag`: the
        exact fields above stay the law, and the cache takes no part in
        ==, hash or repr.
        """
        if self.r == 0:
            pos, mass = np.array([0.0]), np.array([1.0])
        else:
            sigma = math.sqrt(variance_exact(self.r, self.base))
            pos = np.array([d / sigma for d, _ in self.items()], dtype=np.float64)[::-1]
            mass = np.array([float(m) for _, m in self.items()], dtype=np.float64)[::-1]
        pos.flags.writeable = False
        mass.flags.writeable = False
        return pos, mass


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


def _from_numerators(r: int, base: int, nums: list[int], den: int) -> DriftDistribution:
    """The drift law of r with atom k = nums[k] / den and the rest as tail."""
    return DriftDistribution(
        base,
        r,
        int_digit_sum(r, base),
        tuple(Fraction(n, den) for n in nums),
        Fraction(den - sum(nums), den),
    )


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
    """The smallest K >= digit count of r whose tail, P(carry count > K),
    is certainly at most tail_eps."""
    if tail_eps <= 0:
        raise ValueError("tail_eps must be positive")
    L = expand(r, base).digit_count()
    K = L
    while carry_tail_probability_bound(K + 1, L, base) > tail_eps:
        K += 1
    return K


def distribution(
    r: int,
    base: int,
    atoms: int | None = None,
    tail_eps: Fraction = DEFAULT_TAIL_EPS,
    cache_dir: str | None = None,
) -> DriftDistribution:
    """Exact atoms 0..K of the drift law of r, with the exact tail mass.

    K is `atoms` when given, otherwise the default cutoff for `tail_eps`.
    With cache_dir set, the carry numerators are read from / written to
    the JSON cache.
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
    if cache_dir is not None:
        save_cached_distribution(base, r, nums, den, cache_dir)
    return _from_numerators(r, base, nums, den)


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
    L = expand(dist.r, b).digit_count()
    K = len(dist.atoms) - 1
    if K < L:
        raise TailBoundUnavailable(
            f"atom cutoff K={K} is below the digit count {L} of r"
        )
    y = Fraction(1, b)
    M = K + 1
    # |d_k| = c + (b-1)*j for k = M + j > K >= L; expand the power
    # binomially over the closed forms of sum_{j>=0} j**i * y**j, i <= 3.
    c = (b - 1) * M - dist.s_r
    z = 1 - y
    sums = (1 / z, y / z**2, y * (1 + y) / z**3, y * (1 + 4 * y + y * y) / z**4)
    total = sum(
        math.comb(power, i) * c ** (power - i) * (b - 1) ** i * sums[i]
        for i in range(power + 1)
    )
    return total * carry_tail_probability_bound(M, L, b)


def mean_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval certain to contain the mean of the drift law."""
    center = sum(Fraction(d) * m for d, m in dist.items())
    t1 = tail_abs_moment_bound(dist, 1)
    return (center - t1, center + t1)


def second_moment_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval containing the second moment (= variance, zero mean)."""
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


def _variance_trailing(rhat: int, m: int, base: int, unit: bool) -> Fraction:
    """Variance of the drift law of b**m * rhat + t, t = 1 (unit) or
    b**m - 1: Var(rhat) and Var(rhat + 1) weighted by the chances that x + t
    does not and does carry out of the low m digits, plus b - b**-(m-1)."""
    check_base(base)
    if m < 1:
        raise ValueError("m must be >= 1")
    bm = Fraction(1, base**m)
    w = 1 - bm if unit else bm
    return (
        w * variance_exact(rhat, base)
        + (1 - w) * variance_exact(rhat + 1, base)
        + base
        - Fraction(1, base ** (m - 1))
    )


def variance_trailing_max_run(rhat: int, m: int, base: int) -> Fraction:
    """Variance of the drift law of b**m * rhat + b**m - 1 (a run of m
    top digits on the right of rhat)."""
    return _variance_trailing(rhat, m, base, unit=False)


def variance_trailing_unit(rhat: int, m: int, base: int) -> Fraction:
    """Variance of the drift law of b**m * rhat + 1 (units digit 1, then
    m-1 zeros, then rhat)."""
    return _variance_trailing(rhat, m, base, unit=True)


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


CACHE_VERSION = 2


def cache_key(base: int, r: int, K: int) -> str:
    digest = sha256(f"{base}:{r:x}:{K}".encode()).hexdigest()[:20]
    return f"dist_b{base}_K{K}_{digest}.json"


def load_cached_distribution(
    base: int, r: int, K: int, cache_dir: str
) -> DriftDistribution | None:
    """The cached law of r with atoms 0..K, or None on a miss.

    The file holds the carry numerators over b**(K+1+L) and the tail
    numerator, all in hex. Any file that is not such a document, or whose
    numerators are negative or do not sum to the denominator, is a miss.
    """
    path = os.path.join(cache_dir, cache_key(base, r, K))
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        key = (doc["version"], doc["base"], int(doc["r"], 16))
        nums = [int(n, 16) for n in doc["nums"]]
        tail = int(doc["tail"], 16)
    except (ValueError, KeyError, TypeError):
        return None  # truncated, unparseable or not a v2 document; recompute and overwrite
    if key != (CACHE_VERSION, base, r) or len(nums) != K + 1:
        return None  # another version, a hash collision or a stale file
    den = base ** (K + 1 + expand(r, base).digit_count())
    if min(nums) < 0 or tail < 0 or sum(nums) + tail != den:
        return None  # not a split of the total mass
    return _from_numerators(r, base, nums, den)


def save_cached_distribution(
    base: int, r: int, nums: list[int], den: int, cache_dir: str
) -> str:
    """Write the carry numerators of r over den; returns the file path."""
    doc = {
        "version": CACHE_VERSION,
        "base": base,
        "r": hex(r),
        "nums": [hex(n) for n in nums],
        "tail": hex(den - sum(nums)),
    }
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(base, r, len(nums) - 1))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
