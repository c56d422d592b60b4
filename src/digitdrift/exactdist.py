"""Exact rational computation of the drift distribution, its moments and
variance.

Everything here is exact: atom masses come out of an integer dynamic
program over the digit chain of r, and variance out of the matching
two-value recursion. Floats never enter, except for one derived cache:
`DriftDistribution.normalized_support`, the float view `cltdiag` reads.

A law from the engine or the cache keeps the engine's integers: the atom
numerators over their one denominator b**(K+1+L). Every library consumer
of masses reads those integers; the tuple of reduced `Fraction`s in
`atoms` is built only when a caller reads it.
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

from ._heap import prime_heap
from .digits import check_base, expand, int_digit_sum, rho_lambda
from .errors import (
    CacheUnwritable,
    CutoffTooLarge,
    NotSingleBlock,
    TailBoundUnavailable,
    ZeroHasNoBlocks,
)

DEFAULT_TAIL_EPS = Fraction(1, 10**30)
# the most numerator bits (512 MB) one law may take; their total grows
# about quadratically with the atom cutoff
MAX_NUMERATOR_BITS = 2**32


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

    The masses are also held as integers, `_numerators` = (nums, den) with
    atom k = nums[k] / den, and every consumer in the package reads those.
    A law from the engine or the cache (`_from_numerators`) is born with
    the engine's numerators and builds `atoms` on first read; a law built
    here from its Fractions gets its numerators on first read, over the
    lcm of the atom denominators. Either way ==, hash and repr read the
    five fields, `atoms` included.
    """

    base: int
    r: int
    s_r: int
    atoms: tuple[Fraction, ...]  # index k -> mass
    tail_mass: Fraction

    def __post_init__(self):
        # a Fraction's denominator is positive, so its sign is its numerator's
        if any(m.numerator < 0 for m in self.atoms) or self.tail_mass.numerator < 0:
            raise AssertionError("negative mass: distribution recursion is broken")

    def __getattr__(self, name):
        # reached only for a name missing from the instance: `atoms` of a
        # law from _from_numerators before its first read
        if name != "atoms":
            raise AttributeError(name)
        nums, den = self._numerators
        atoms = tuple(Fraction(n, den) for n in nums)
        object.__setattr__(self, "atoms", atoms)
        return atoms

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """(nums, den): atom k is nums[k] / den."""
        den = math.lcm(*(m.denominator for m in self.atoms))
        return tuple(m.numerator * (den // m.denominator) for m in self.atoms), den

    def position(self, k: int) -> int:
        """k-th possible drift value: s(r) - k*(b-1), k = carry count (an
        int, or elementwise an int array)."""
        return self.s_r - k * (self.base - 1)

    def items(self):
        """(d, mass) pairs, k ascending (d descending)."""
        for k, m in enumerate(self.atoms):
            yield self.position(k), m

    def _numerator_at(self, d: int) -> int:
        """The numerator of the mass at the integer d, over `_numerators`' den."""
        nums = self._numerators[0]
        q, rem = divmod(self.s_r - d, self.base - 1)
        if rem != 0 or q < 0 or q >= len(nums):
            return 0
        return nums[q]

    def mass_at(self, d: int) -> Fraction:
        return Fraction(self._numerator_at(d), self._numerators[1])

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
            # bit for bit the per-atom d / sigma and float(m): each int d is
            # rounded to a double before the division either way (a range of
            # Python ints, so no int64 overflow for wide bases), and int / int
            # is correctly rounded, as float(Fraction) is, so n / den is the
            # float of the reduced atom. Built k ascending and read reversed:
            # the negative stride keeps `pos**3` in smooth_gap's cubic gap on
            # its pinned bits, since numpy's pow kernel rounds by memory
            # layout (contiguous copies move the last bit on some laws)
            nums, den = self._numerators
            n = len(nums)
            ds = range(self.s_r, self.position(n), 1 - self.base)
            pos = (np.fromiter(ds, float, n) / sigma)[::-1]
            mass = np.array([m / den for m in nums])[::-1]
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


def check_atom_cutoff(K: int, digit_count: int, base: int) -> None:
    """Refuse an atom cutoff K of an L-digit r whose numerators would pass
    MAX_NUMERATOR_BITS: each of the K+1 is below b**(K+1+L)."""
    if (K + 1) * (K + 1 + digit_count) > MAX_NUMERATOR_BITS / math.log2(base):
        raise CutoffTooLarge(
            f"atom cutoff {K} in base {base} needs more than "
            f"{MAX_NUMERATOR_BITS} numerator bits"
        )


# the packed carry walk widens its slots in stretches of at least this many
# bits of b**i; r below that keeps one slot width for its whole walk
_STRETCH_BITS = 256


def _slot_bits(bound: int) -> int:
    """The byte-aligned slot width, in bits, that holds every count <= bound."""
    return -(-bound.bit_length() // 8) * 8


def _repack(X: int, n: int, w: int, w2: int) -> int:
    """X's n slots of w bits moved to slots of w2 >= w bits (both byte-aligned)."""
    wb, pad = w // 8, bytes((w2 - w) // 8)
    buf = X.to_bytes(n * wb, "little")
    return int.from_bytes(
        b"".join(buf[j : j + wb] + pad for j in range(0, n * wb, wb)), "little"
    )


def _unpack(X: int, n: int, w: int) -> list[int]:
    """The n slots of w bits (byte-aligned) of X, lowest first."""
    wb = w // 8
    buf = X.to_bytes(n * wb, "little")
    return [int.from_bytes(buf[j : j + wb], "little") for j in range(0, n * wb, wb)]


def _carry_numerators(r: int, base: int, K: int) -> tuple[list[int], int]:
    """Numerators of the drift-law atoms 0..K of r (atom k: x + r makes k
    carries), with their common denominator b**(K+1+L), L the digit count.

    x is a b-adic integer. The walk takes the digits delta of r least
    significant first: p[k] and q[k] count, over b**i, the low i digits of x
    that make k carries with r's low i digits and then no carry (p) or a
    carry (q) into the next digit. Digit i of x carries out with delta + c
    of its b values, c the carry in, and each carry adds one to the count:
    p, q <- (b-delta)*p + (b-delta-1)*q, y*(delta*p + (delta+1)*q), cut at
    degree K.

    p and q are packed into two integers P and Q, coefficient k in the
    w-bit slot k (Kronecker substitution), so a digit is a few whole-integer
    operations: with S = P + Q, Q <- delta*S + Q, P <- b*S - Q, Q <- Q << w
    (the first skipped for delta = 0, the second, which leaves P as it is,
    for delta = b-1), and Q cut to K+1 slots once the walk reaches degree K;
    P never passes degree K, since Q is cut first. This is exact because no
    slot ever overflows into the next: after i digits, p[k] and q[k] count
    disjoint sets of the b**i low digit strings of x, so every slot of S is
    at most b**i, and every slot of delta*S, b*S, delta*S + Q and of the new
    P (a count after i+1 digits, so nonnegative: b*S - Q borrows nothing) is
    at most b**(i+1). So w-bit slots with 2**w > b**end hold every count up
    to digit `end`. Slots of b**L from the first digit on would do about
    L**3 / 2 slot-bit operations (times log2 b) where the counts need about
    L**3 / 3, so the walk goes in stretches: the first runs the digits of
    about _STRETCH_BITS bits, each later one max(that, i // 4) digits, and
    at the start of each the live slots are re-packed to the width its last
    digit needs.

    Above r's digits a carry goes on with probability 1/b per digit of x
    (that digit is b-1), so x + r makes k carries with mass p[k] / b**L plus
    (b-1) * sum_{j<=k} q[j] * b**j / b**(L+k+1). Over the common denominator
    that is T_k * b**(K-k), T_k = b**(k+1) * p[k] + (b-1) * sum_{j<=k} q[j] * b**j,
    and T_k is constant for k > L: past r's digits the atoms are geometric,
    each numerator b times the next one. b**(K-k) grows by one factor of b
    per atom, not by a power per atom.
    """
    b = base
    digits = expand(r, b).digits
    L = len(digits)
    check_atom_cutoff(K, L, b)
    floor = max(1, int(_STRETCH_BITS / math.log2(b)))  # digits per stretch, at least
    # integers that grow by one slot per digit would each fault in fresh
    # pages (a quarter of the wall time of a 2000-digit walk in base 10):
    # a block four times the walk's largest integer primes the heap for them
    prime_heap(4 * (min(L, K) + 2) * _slot_bits(b**L) // 8)
    P, Q, w, i = 1, 0, 8, 0  # p = 1, q = 0 in one 8-bit slot (all of r = 0)
    while i < L:
        end = min(L, i + max(floor, i // 4))
        w2 = _slot_bits(b**end)
        if i:
            n = min(i, K) + 1  # Q's live slots; P's are among them
            P, Q = _repack(P, n, w, w2), _repack(Q, n, w, w2)
        w = w2
        if K < end:
            mask = (1 << w * (K + 1)) - 1
        for j in range(i, end):
            delta = digits[j]
            S = P + Q
            if delta:
                Q += delta * S
            if delta != b - 1:
                P = b * S - Q
            Q <<= w
            if j >= K:
                Q &= mask
        i = end
    n = min(L, K) + 1
    p, q = _unpack(P, n, w), _unpack(Q, n, w)
    T, s, bj = [], 0, 1  # bj = b**j
    for f, g in zip(p, q):
        s += g * bj
        bj *= b
        T.append(bj * f + (b - 1) * s)
    # every k past the walk, where p[k] = 0, has T_k = (b-1) * s
    nums, x = [0] * (K + 1), (b - 1) * s
    for k in range(K, n - 1, -1):
        nums[k] = x
        x *= b
    pw = b ** (K + 1 - n)  # b**(K-k)
    for k in range(n - 1, -1, -1):
        nums[k] = T[k] * pw
        pw *= b
    return nums, b ** (K + 1 + len(digits))


def _from_numerators(r: int, base: int, nums: list[int], den: int) -> DriftDistribution:
    """The drift law of r with atom k = nums[k] / den and the rest as tail.

    The law keeps the integers; its `atoms` are built on first read."""
    tail = den - sum(nums)
    if min(nums) < 0 or tail < 0:
        raise AssertionError("negative mass: distribution recursion is broken")
    law = object.__new__(DriftDistribution)
    vars(law).update(
        base=base,
        r=r,
        s_r=int_digit_sum(r, base),
        tail_mass=Fraction(tail, den),
        _numerators=(tuple(nums), den),
    )
    return law


def atom_mass(r: int, base: int, d: int) -> Fraction:
    """Exact mass of the drift law of r at the integer d."""
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    s_r = int_digit_sum(r, base)
    q, rem = divmod(s_r - d, base - 1)
    if rem != 0 or q < 0:
        return Fraction(0)  # off-lattice or above the top atom
    return distribution(r, base, atoms=q).mass_at(d)


def default_atom_cutoff(r: int, base: int, tail_eps: Fraction) -> int:
    """The smallest K >= digit count of r whose tail, P(carry count > K),
    is certainly at most tail_eps."""
    if tail_eps <= 0:
        raise ValueError("tail_eps must be positive")
    # the tail past K = L + j is at most b**-(j+1), see carry_tail_probability_bound,
    # so K = L + j for the least j with num * b**(j+1) >= den. As den / num > 2**e,
    # every j + 1 <= e / log2(b) falls short; the search starts one below that
    # floor, so a rounding of the float quotient cannot start it past the answer
    num, den = tail_eps.numerator, tail_eps.denominator
    e = den.bit_length() - num.bit_length() - 1
    j = max(0, int(e / math.log2(base)) - 1)
    K, bound = expand(r, base).digit_count() + j, num * base ** (j + 1)
    while bound < den:
        K, bound = K + 1, bound * base
    return K


def distribution(
    r: int, base: int, atoms: int | None = None, cache_dir: str | None = None
) -> DriftDistribution:
    """Exact atoms 0..K of the drift law of r, with the exact tail mass.

    K is `atoms` when given, otherwise the default cutoff for DEFAULT_TAIL_EPS.
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
        K = default_atom_cutoff(r, base, DEFAULT_TAIL_EPS)
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
    K = len(dist._numerators[0]) - 1
    if K < L:
        raise TailBoundUnavailable(
            f"atom cutoff K={K} is below the digit count {L} of r"
        )
    M = K + 1
    # |d_k| = c + (b-1)*j for k = M + j > K >= L, at mass at most b**(L-M) * b**-j;
    # expand the power binomially over the closed forms of sum_{j>=0} j**i / b**j,
    # i <= 3, which are s_i / (b-1)**(i+1): the (b-1)**i of the expansion cancel
    c = (b - 1) * M - dist.s_r
    s = (b, b, b * (b + 1), b * (b * b + 4 * b + 1))
    total = sum(math.comb(power, i) * c ** (power - i) * s[i] for i in range(power + 1))
    return Fraction(total, (b - 1) * b ** (M - L))


def _stored_moment(dist: DriftDistribution, power: int) -> Fraction:
    """Sum of d**power * mass over the stored atoms."""
    nums, den = dist._numerators
    ds = range(dist.s_r, dist.position(len(nums)), 1 - dist.base)
    return Fraction(sum(d**power * n for d, n in zip(ds, nums)), den)


def mean_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval certain to contain the mean of the drift law."""
    center = _stored_moment(dist, 1)
    t1 = tail_abs_moment_bound(dist, 1)
    return (center - t1, center + t1)


def second_moment_interval(dist: DriftDistribution) -> tuple[Fraction, Fraction]:
    """Exact interval containing the second moment (= variance, zero mean)."""
    partial = _stored_moment(dist, 2)
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


def _sqrt_below(var: Fraction) -> Fraction:
    """The multiple of 2**-53 just below sqrt(var), var >= 0:
    result <= sqrt(var) < result + 2**-53."""
    n, d = var.numerator, var.denominator
    return Fraction(isqrt(n * d << 106), d << 53)


def std_dev(r: int, base: int) -> Fraction:
    """Square root of the exact variance, within 2**-53.

    Returned as a Fraction underestimate: result <= sqrt(Var) < result + 2**-53.
    """
    return _sqrt_below(variance_exact(r, base))


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
    if not os.path.isfile(path):
        return None  # nothing, or a directory, at the key path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        key = (doc["version"], doc["base"], int(doc["r"], 16))
        nums = [int(n, 16) for n in doc["nums"]]
        tail = int(doc["tail"], 16)
    except (ValueError, KeyError, TypeError, RecursionError):
        return None  # truncated, unparseable, nested too deep or not v2: recompute
    if key != (CACHE_VERSION, base, r) or len(nums) != K + 1:
        return None  # another version, a hash collision or a stale file
    den = base ** (K + 1 + expand(r, base).digit_count())
    if min(nums) < 0 or tail < 0 or sum(nums) + tail != den:
        return None  # not a split of the total mass
    return _from_numerators(r, base, nums, den)


def save_cached_distribution(
    base: int, r: int, nums: list[int], den: int, cache_dir: str
) -> str:
    """Write the carry numerators of r over den; returns the file path.

    A directory at that path is left as it is, so its key stays a miss; a
    cache_dir that cannot be made or written into raises CacheUnwritable."""
    doc = {
        "version": CACHE_VERSION,
        "base": base,
        "r": hex(r),
        "nums": [hex(n) for n in nums],
        "tail": hex(den - sum(nums)),
    }
    path = os.path.join(cache_dir, cache_key(base, r, len(nums) - 1))
    if os.path.isdir(path):
        return path
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as exc:
        raise CacheUnwritable(
            f"cannot use {cache_dir!r} as the cache directory: {exc.strerror}"
        ) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))  # the C encoder; json.dump streams in Python
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # a full disk, say
            raise CacheUnwritable(f"cannot write into {cache_dir!r}: {exc.strerror}") from exc
        raise
    return path
