"""Brute-force ground truth by direct counting.

Counts drift values over dense integer ranges, splitting each integer
into a high and a low half so that two digit-sum tables of about sqrt(N)
entries cover a range of N when r is below sqrt(N), and converts level
counts into exact interval enclosures of the atom masses. This is the
anti-bug oracle for the exact recursion: the two sides share no code.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import check_base, expand, int_digit_sum
from .errors import LevelTooSmall, TableTooLarge
from .exactdist import (
    DriftDistribution,
    distribution,
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
    if limit > 2**30:
        raise TableTooLarge(
            "table limit too large: more than 2**30 entries, "
            "and counting over it would need several GB of memory"
        )
    max_sum = (base - 1) * expand(limit - 1, base).digit_count()
    table = np.zeros(limit, dtype=np.min_scalar_type(max_sum))
    block = 1
    while block < limit:
        # entry d*block + j is table[j] + d for each digit d at this power
        top = min(base * block, limit)
        full, rest = divmod(top, block)
        tiles = table[: full * block].reshape(full, block)
        np.add(tiles[0], np.arange(1, full, dtype=table.dtype)[:, None], out=tiles[1:])
        if rest:
            np.add(table[:rest], full, out=table[full * block : top])
        block *= base
    return table


def _max_digit_sum_below(limit: int, base: int) -> int:
    """Largest digit sum of 0..limit-1 (limit >= 1).

    A number below limit-1 agrees with it above some digit i, has a smaller
    digit at i, and at best b-1 in every digit under i.
    """
    digits = expand(limit - 1, base).digits
    best, above = sum(digits), 0
    for i in reversed(range(len(digits))):
        if digits[i]:
            best = max(best, above + digits[i] - 1 + (base - 1) * i)
        above += digits[i]
    return best


def _carries(table: np.ndarray, r: int, base: int) -> np.ndarray:
    """Carry count of i + r for each i < len(table) - r, from the digit sums
    of 0..len(table)-1: s(i) + s(r) - s(i + r) = (b-1) * carries.

    The signed type one size up from the table's holds every difference,
    and s(r) and b-1, which are at most the digit sum that type was sized for.
    """
    carries = table[:-r].astype(np.promote_types(table.dtype, np.int8))
    carries += int_digit_sum(r, base)
    carries -= table[r:]
    if (carries % (base - 1)).any() or carries.min(initial=0) < 0:
        raise RuntimeError("digit-sum table is inconsistent: drift off the lattice")
    carries //= base - 1
    return carries


def _carry_counts(r: int, base: int, m: int) -> np.ndarray:
    """counts[c] = |{n < m : adding r to n creates c carries}|.

    Writes n = hi*B + lo with lo < B = b^h and B > r. Adding r to n carries
    out of the low h digits exactly when lo >= B - r, and that carry runs on
    through the trailing b-1 digits of hi, as many as the carries of hi + 1.
    So the count needs the carries of lo + r for lo < B and of hi + 1 for
    hi <= m // B: two digit-sum tables of min(B, m) + r and m // B + 2
    entries, about sqrt(m) each when r is below sqrt(m).
    """
    if not r or not m:
        return np.array([m], dtype=np.int64)  # no carries, or nothing counted
    kmax = (_max_digit_sum_below(m + r, base) + int_digit_sum(r, base)) // (base - 1) + 2
    h = max(-(-expand(m, base).digit_count() // 2), expand(r, base).digit_count())
    B = base**h
    q, p = divmod(m, B)
    low = _carries(digit_sum_table(min(B, m) + r, base), r, base)
    high = _carries(digit_sum_table(q + 2, base), 1, base)
    cut = B - r  # lows from cut up carry out of the low h digits
    counts = np.zeros(kmax, dtype=np.int64)
    if q:  # the full blocks hi < q, each over every lo < B
        stay = q * np.bincount(low[:cut])
        out = np.convolve(np.bincount(low[cut:]), np.bincount(high[:q]))
        counts[: len(stay)] += stay
        counts[: len(out)] += out
    # the partial block hi = q over lo < p
    stay = np.bincount(low[: min(p, cut)])
    out = np.bincount(low[cut:p])
    t = int(high[q])
    counts[: len(stay)] += stay
    counts[t : t + len(out)] += out
    if int(counts.sum()) != m:
        raise RuntimeError("split counts do not add up to the counted range")
    return counts


def _enclosure_numerators(counts: np.ndarray, r: int, base: int, d: int) -> tuple[int, int]:
    """(c, c + r) with c the count at drift d, 0 when d is off the lattice
    of r or past the counts: over the tower total they enclose the atom mass
    at d, and the r uncounted top levels account for the width."""
    q, rem = divmod(int_digit_sum(r, base) - d, base - 1)
    c = int(counts[q]) if rem == 0 and 0 <= q < len(counts) else 0
    return c, c + r


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
        s_r - k * (base - 1): Fraction(int(c), n)
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
    if level < 0:
        raise LevelTooSmall(f"tower level must be >= 0, got {level}")
    total = base ** (level + 1)
    if total <= r:
        raise LevelTooSmall(f"base**(level+1) = {total} must exceed r = {r}")
    m = total - r
    return _carry_counts(r, base, m), m, total


def tower_enclosure(
    r: int, base: int, level: int, d: int
) -> tuple[Fraction, Fraction]:
    """Exact interval [c/b^(l+1), (c+r)/b^(l+1)] guaranteed to contain the
    atom mass at d."""
    counts, _, total = tower_counts(r, base, level)
    lo, hi = _enclosure_numerators(counts, r, base, d)
    return Fraction(lo, total), Fraction(hi, total)


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
    """Verify every atom above min_mass against its tower enclosure,
    lo <= mass <= hi cross-multiplied over the tower total."""
    r, base = dist.r, dist.base
    counts, _, total = tower_counts(r, base, level)
    violations = []
    for k, mass in enumerate(dist.atoms):
        if mass <= min_mass:
            continue
        d = dist.position(k)
        lo, hi = _enclosure_numerators(counts, r, base, d)
        if not lo * mass.denominator <= mass.numerator * total <= hi * mass.denominator:
            lo, hi = Fraction(lo, total), Fraction(hi, total)
            violations.append(EnclosureViolation(r, base, level, k, d, mass, lo, hi))
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


def cesaro_check(r: int, base: int, n: int, f: str, d: int | None = None) -> CesaroResult:
    """Counting average of f(drift) over 0..n-1 against the exact atom sum.

    f is "identity", "square", "abs" or "indicator" (with d). The exact
    side is an interval covering the certified tail.
    """
    check_base(base)
    if n < 1:
        raise ValueError("n must be >= 1")
    if f not in ("identity", "square", "abs", "indicator"):
        raise ValueError(f"unknown function descriptor {f!r}")
    if f == "indicator" and d is None:
        raise ValueError("indicator needs a point d")
    dist = distribution(r, base)
    dens = empirical_density(r, base, n)
    if f == "indicator":
        emp = dens.get(d, Fraction(0))
        q, rem = divmod(dist.s_r - d, base - 1)
        if rem == 0 and q >= len(dist.atoms):
            return CesaroResult(emp, Fraction(0), dist.tail_mass)
        mass = dist.mass_at(d)
        return CesaroResult(emp, mass, mass)
    g = {"identity": lambda x: x, "square": lambda x: x * x, "abs": abs}[f]
    emp = sum(g(dd) * m for dd, m in dens.items())
    if f == "identity":
        return CesaroResult(emp, *mean_interval(dist))
    if f == "square":
        return CesaroResult(emp, *second_moment_interval(dist))
    partial = sum(abs(Fraction(dd)) * m for dd, m in dist.items())
    t1 = tail_abs_moment_bound(dist, 1)
    return CesaroResult(emp, partial, partial + t1)
