"""Brute-force ground truth by direct counting.

Counts the carries of n + r over all n < m in chunks of w digits, low to
high, w the least with b^w >= 2^12: one digit-sum table gives the carries
of every chunk value x plus r's chunk and a carry-in, and a state of (carry
out, n's digits so far below m's) takes their histograms up the chunks.
Tower counts become exact interval enclosures of the atom masses. This is
the anti-bug oracle for the exact recursion: the two sides share no code,
and each chunk below the top one enumerates at least 2^12 values, so the
count is not the exact one-digit recursion written as counting. The oracle
reads digits with its own divmod loop, so a wrong fast path in
digits.expand or digits.int_digit_sum cannot cancel out in check_enclosures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import check_base
from .errors import LevelTooLarge, LevelTooSmall, TableTooLarge
from .exactdist import (
    DriftDistribution,
    distribution,
    mean_interval,
    second_moment_interval,
    tail_abs_moment_bound,
)

_CHUNK = 2**12  # each chunk of the count below the top one enumerates at least this many values
MAX_LEVEL = 1000  # highest tower level counted; see tower_counts
MAX_TOWER_VALUES = 2**24  # most chunk values a tower count enumerates; see tower_counts


def _digits(n: int, base: int) -> list[int]:
    """Base-b digits of n >= 0, least-significant first."""
    ds = []
    while n:
        n, d = divmod(n, base)
        ds.append(d)
    return ds


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
    max_sum = (base - 1) * len(_digits(limit - 1, base))
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


def _chunk_moves(table, base, width, r_i, m_i, span, c):
    """Where v = x + r_i + c takes the state, x < span, in a chunk of width
    digits: (carry out, below m_i, carry histogram) for x != m_i, (carry out,
    carries) at m_i. (b-1) * carries = s(x) + s(r_i) + c - s(v mod b^width) - out."""
    carries = table[:span].astype(np.promote_types(table.dtype, np.min_scalar_type(-base)))
    carries += sum(_digits(r_i, base)) + c  # a signed type one size up holds each sum
    cut = min(base**width - r_i - c, span)  # x from cut up carries out of the chunk
    carries[:cut] -= table[r_i + c : r_i + c + cut]
    carries[cut:] -= table[: span - cut]
    carries[cut:] -= 1
    sums, carries = carries, carries // (base - 1)  # on the lattice iff no sum is floored
    if sums.min(initial=0) < 0 or int(carries.sum()) * (base - 1) != int(sums.sum()):
        raise RuntimeError("digit-sum table is inconsistent: drift off the lattice")
    parts = ((0, 1, 0, min(m_i, cut)), (1, 1, cut, m_i), (0, 0, m_i + 1, cut),
             (1, 0, max(m_i + 1, cut), span))
    steps = [(out, below, np.bincount(carries[i:j], minlength=width + 1))
             for out, below, i, j in parts if i < j]
    return steps, int(m_i >= cut), int(carries[m_i])


def _chunk_width(base: int) -> int:
    """Digits per chunk: the least w with b^w >= 2^12."""
    return next(w for w in range(1, _CHUNK.bit_length() + 1) if base**w >= _CHUNK)


def _chunk_values(base: int, width: int) -> int:
    """Chunk values a count over W = width digits enumerates: ceil(W/w) * b^min(w, W)."""
    w = _chunk_width(base)
    return -(-width // w) * base ** min(w, width)


def _carry_counts(r: int, base: int, m: int) -> np.ndarray:
    """counts[c] = |{n < m : adding r to n creates c carries}|: the state (carry
    0, below) after W = digits(m + r) digits, so the top chunk runs to m's."""
    if not r or not m:
        return np.array([m], dtype=np.int64)  # no carries, or nothing counted
    # below m + r no digit sum beats last's or last's top digit less one over b-1's
    last = _digits(m + r - 1, base)
    top_sum = max(sum(last), last[-1] - 1 + (base - 1) * (len(last) - 1))
    kmax = (top_sum + sum(_digits(r, base))) // (base - 1) + 2
    dtype = np.int64 if m + r < 2**63 else object  # no count passes max(m, b^(W-1))
    top = len(_digits(m + r, base))
    w = _chunk_width(base)
    table = digit_sum_table(min(base**w, m + r + 1), base)  # serves every chunk
    states = np.zeros((2, 2, top + 1), dtype)  # [carry out, below m, carries]
    states[0, 0, 0] = 1
    for lo in range(0, top, w):
        width, n = min(w, top - lo), lo + 1
        r_i, m_i = (x // base**lo % base**w for x in (r, m))
        span = m_i + 1 if lo + width == top else base**width
        new = np.zeros_like(states)
        for c in np.flatnonzero(states.any(axis=(1, 2))).tolist():
            steps, out, k = _chunk_moves(table, base, width, r_i, m_i, span, c)
            either = states[c, 0, :n] + states[c, 1, :n]
            for to, below, hist in steps:
                new[to, below, : n + width] += np.convolve(either, hist)
            new[out, :, k : k + n] += states[c, :, :n]
        states = new
    counts = np.zeros(kmax, dtype)
    counts[: top + 1] = states[0, 1]
    if counts.sum() != m:
        raise RuntimeError("chunk counts do not add up to the counted range")
    return counts


def _enclosure_numerators(
    counts: np.ndarray, r: int, s_r: int, base: int, d: int
) -> tuple[int, int]:
    """(c, c + r) with c the count at drift d, 0 when d is off the lattice
    of r (digit sum s_r) or past the counts: over the tower total they
    enclose the atom mass at d, and the r uncounted top levels account for
    the width."""
    q, rem = divmod(s_r - d, base - 1)
    c = int(counts[q]) if rem == 0 and 0 <= q < len(counts) else 0
    return c, c + r


def empirical_density(r: int, base: int, n: int) -> dict[int, Fraction]:
    """Exact counting densities count/n of each drift value over 0..n-1.

    Like tower_counts, a count past MAX_TOWER_VALUES chunk values is refused.
    """
    check_base(base)
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    width = len(_digits(n + r, base))
    values = _chunk_values(base, width)
    if values > MAX_TOWER_VALUES:
        raise TableTooLarge(
            f"counting the {width} digits of n + r in base {base} enumerates "
            f"{values} chunk values, more than {MAX_TOWER_VALUES}"
        )
    counts = _carry_counts(r, base, n)
    s_r = sum(_digits(r, base))
    return {
        s_r - k * (base - 1): Fraction(int(c), n)
        for k, c in enumerate(counts)
        if c
    }


def tower_counts(r: int, base: int, level: int) -> tuple[np.ndarray, int, int]:
    """Carry-count histogram over the first base**(level+1) - r tower levels.

    Returns (counts indexed by carry count, number of counted levels,
    total levels). The drift is constant on each counted level and each
    level has mass 1/total. The count grows about quadratically in the
    level, so levels past MAX_LEVEL are refused: at level 1000 a random r of
    1000 digits took 0.3 s in base 2, 0.9 s in base 10, 7 s in base 40000.
    It also grows with the values it enumerates, one chunk table per chunk
    of the level + 1 digits, so counts past MAX_TOWER_VALUES of them are
    refused too. At 2^24 values a random r took 0.5 s in base 2^20 at level
    15, 0.6 s and 194 MB in base 2^23 at level 1, and 0.4 s and 322 MB in
    base 4095 at level 1 (one chunk of 4095^2 values).
    """
    check_base(base)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if level < 0:
        raise LevelTooSmall(f"tower level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise LevelTooLarge(f"tower level must be <= {MAX_LEVEL}, got {level}")
    values = _chunk_values(base, level + 1)
    if values > MAX_TOWER_VALUES:
        raise LevelTooLarge(
            f"tower level {level} in base {base} enumerates {values} chunk values, "
            f"more than {MAX_TOWER_VALUES}"
        )
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
    lo, hi = _enclosure_numerators(counts, r, sum(_digits(r, base)), base, d)
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


def check_enclosures(dist: DriftDistribution, level: int) -> list[EnclosureViolation]:
    """Verify every atom above 10^-9 against its tower enclosure,
    lo <= mass <= hi cross-multiplied over the tower total and the law's
    denominator."""
    r, base = dist.r, dist.base
    counts, _, total = tower_counts(r, base, level)
    violations, s_r = [], sum(_digits(r, base))
    nums, den = dist._numerators
    for k, n in enumerate(nums):
        if n * 10**9 <= den:
            continue
        d = dist.position(k)
        lo, hi = _enclosure_numerators(counts, r, s_r, base, d)
        if not lo * den <= n * total <= hi * den:
            mass, lo, hi = Fraction(n, den), Fraction(lo, total), Fraction(hi, total)
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
        if rem == 0 and q >= len(dist._numerators[0]):
            return CesaroResult(emp, Fraction(0), dist.tail_mass)
        mass = dist.mass_at(d)
        return CesaroResult(emp, mass, mass)
    g = {"identity": lambda x: x, "square": lambda x: x * x, "abs": abs}[f]
    emp = sum(g(dd) * m for dd, m in dens.items())
    if f == "identity":
        return CesaroResult(emp, *mean_interval(dist))
    if f == "square":
        return CesaroResult(emp, *second_moment_interval(dist))
    nums, den = dist._numerators
    partial = Fraction(sum(abs(dist.position(k)) * n for k, n in enumerate(nums)), den)
    t1 = tail_abs_moment_bound(dist, 1)
    return CesaroResult(emp, partial, partial + t1)
