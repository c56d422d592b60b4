"""Brute-force ground truth by direct counting.

Counts drift values over dense integer ranges (digit sums come from a
shared table built once per range) and converts level counts into exact
interval enclosures of the atom masses. This is the anti-bug oracle for
the exact recursion: the two sides share no code.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import check_base, expand, int_digit_sum
from .errors import LevelTooSmall
from .exactdist import (
    DriftDistribution,
    distribution,
    lattice_point,
    mean_interval,
    second_moment_interval,
    tail_abs_moment_bound,
)


def digit_sum_table(limit: int, base: int) -> np.ndarray:
    """Digit sums of 0..limit-1, built by base-power tiling.

    The dtype is the smallest unsigned one that holds the largest digit
    sum below limit, (b-1) times the digit count of limit-1.
    """
    check_base(base)
    if limit <= 0:
        return np.zeros(0, dtype=np.uint8)
    if limit > 2**31:
        raise ValueError("table limit too large")
    max_sum = (base - 1) * len(expand(limit - 1, base).digits)
    table = np.zeros(limit, dtype=np.min_scalar_type(max_sum))
    block = 1
    while block < limit:
        for d in range(1, base):
            lo = d * block
            if lo >= limit:
                break
            hi = min(lo + block, limit)
            np.add(table[: hi - lo], d, out=table[lo:hi])
        block *= base
    return table


# integers counted per pass; the pass's temporaries (bincount widens to
# intp) stay in cache instead of costing 8 bytes per counted integer
_CHUNK = 1 << 15


@functools.lru_cache(maxsize=1)
def _table(limit: int, base: int) -> tuple[np.ndarray, int]:
    """The most recent digit-sum table and its maximum; sweeps reuse it across r."""
    table = digit_sum_table(limit, base)
    return table, int(table.max(initial=0))


def _carry_counts(r: int, base: int, m: int) -> np.ndarray:
    """counts[c] = |{n < m : adding r to n creates c carries}|."""
    if not r or not m:
        return np.array([m], dtype=np.int64)  # no carries, or nothing counted
    s_r = int_digit_sum(r, base)
    table, table_max = _table(m + r, base)
    kmax = (table_max + s_r) // (base - 1) + 2
    # s(n) + s(r) - s(n + r) = c*(b-1) lies in [0, table_max + s(r)], so an
    # unsigned type of that size holds every intermediate; bin the
    # difference and read the carry count c off every (b-1)-th bin.
    top = table_max + s_r
    dtype = np.min_scalar_type(top)
    binned = np.zeros(top + 1, dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        diff = table[lo:hi].astype(dtype)
        diff += s_r
        diff -= table[r + lo : r + hi]
        binned += np.bincount(diff, minlength=top + 1)
    hits = binned[:: base - 1]
    if int(hits.sum()) != m:
        raise RuntimeError("digit-sum table is inconsistent: drift off the lattice")
    counts = np.zeros(kmax, dtype=np.int64)
    counts[: len(hits)] = hits
    return counts


def _count_at(counts: np.ndarray, r: int, base: int, d: int) -> int:
    """The count at drift d; 0 when d is off the lattice of r or past the counts."""
    q, rem = divmod(int_digit_sum(r, base) - d, base - 1)
    return int(counts[q]) if rem == 0 and 0 <= q < len(counts) else 0


def empirical_density(r: int, base: int, n: int) -> dict[int, Fraction]:
    """Exact counting densities count/n of each drift value over 0..n-1."""
    check_base(base)
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    counts = _carry_counts(r, base, n)
    s_r = int_digit_sum(r, base)
    return {
        lattice_point(s_r, k, base): Fraction(int(c), n)
        for k, c in enumerate(counts)
        if c
    }


def tower_counts(r: int, base: int, level: int) -> tuple[np.ndarray, int, int]:
    """Carry-count histogram over the first base**(level+1) - r tower levels.

    Returns (counts indexed by carry count, number of counted levels,
    total levels). The drift is constant on each counted level and each
    level has mass 1/total.
    """
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    total = base ** (level + 1)
    if total <= r:
        raise LevelTooSmall(f"base**(level+1) = {total} must exceed r = {r}")
    m = total - r
    return _carry_counts(r, base, m), m, total


def tower_enclosure(
    r: int, base: int, level: int, d: int
) -> tuple[Fraction, Fraction]:
    """Exact interval [c/b^(l+1), (c+r)/b^(l+1)] guaranteed to contain the
    atom mass at d; the r uncounted top levels account for the width."""
    counts, _, total = tower_counts(r, base, level)
    c = _count_at(counts, r, base, d)
    return Fraction(c, total), Fraction(c + r, total)


@dataclass(frozen=True)
class EnclosureViolation:
    r: int
    base: int
    level: int
    k: int
    d: int
    mass: Fraction
    lo: Fraction
    hi: Fraction


def check_enclosures(
    dist: DriftDistribution, level: int, min_mass: Fraction = Fraction(1, 10**9)
) -> list[EnclosureViolation]:
    """Verify every atom above min_mass against its tower enclosure."""
    r, base = dist.r, dist.base
    counts, _, total = tower_counts(r, base, level)
    violations = []
    for k, mass in enumerate(dist.atoms):
        if mass <= min_mass:
            continue
        c = int(counts[k]) if k < len(counts) else 0
        lo = Fraction(c, total)
        hi = Fraction(c + r, total)
        if not lo <= mass <= hi:
            violations.append(
                EnclosureViolation(r, base, level, k, dist.position(k), mass, lo, hi)
            )
    return violations


@dataclass(frozen=True)
class CesaroResult:
    empirical: Fraction
    exact_lo: Fraction
    exact_hi: Fraction

    @property
    def distance(self) -> Fraction:
        if self.exact_lo <= self.empirical <= self.exact_hi:
            return Fraction(0)
        return min(
            abs(self.empirical - self.exact_lo), abs(self.empirical - self.exact_hi)
        )


def cesaro_check(
    r: int,
    base: int,
    n: int,
    f: str,
    d: int | None = None,
    dist: DriftDistribution | None = None,
) -> CesaroResult:
    """Counting average of f(drift) over 0..n-1 against the exact atom sum.

    f is "identity", "square", "abs" or "indicator" (with d). The exact
    side is an interval covering the certified tail.
    """
    check_base(base)
    if f == "indicator" and d is None:
        raise ValueError("indicator needs a point d")
    if dist is None:
        dist = distribution(r, base)
    s_r = dist.s_r
    counts = _carry_counts(r, base, n)
    ks = np.arange(len(counts))
    ds = s_r - ks * (base - 1)
    if f == "identity":
        emp = Fraction(int(np.sum(counts * ds)), n)
        return CesaroResult(emp, *mean_interval(dist))
    if f == "square":
        emp = Fraction(int(np.sum(counts * ds * ds)), n)
        return CesaroResult(emp, *second_moment_interval(dist))
    if f == "abs":
        emp = Fraction(int(np.sum(counts * np.abs(ds))), n)
        partial = sum(abs(Fraction(dd)) * m for dd, m in dist.items())
        t1 = tail_abs_moment_bound(dist, 1)
        return CesaroResult(emp, partial, partial + t1)
    if f == "indicator":
        q, rem = divmod(s_r - d, base - 1)
        emp = Fraction(_count_at(counts, r, base, d), n)
        mass = dist.mass_at(d)
        if rem == 0 and q >= len(dist.atoms):
            return CesaroResult(emp, Fraction(0), dist.tail_mass)
        return CesaroResult(emp, mass, mass)
    raise ValueError(f"unknown function descriptor {f!r}")
