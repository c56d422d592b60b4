"""Simulation of the digit-sampling probability space.

A sample is a lazily revealed infinite digit string with i.i.d. uniform
digits; adding an integer r to it realizes just enough digits to finish
the carry propagation. A vectorized twin generates the same digits for
sample batches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .digits import check_base, digits_value, expand, int_digit_sum
from .errors import Int64Overflow, PropagationCapExceeded

DEFAULT_PROPAGATION_CAP = 4096


@dataclass
class LazyBadicSample:
    """A random b-adic integer: digits are drawn on demand and never change."""

    base: int
    seed: int = 0
    index: int = 0
    _digits: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        check_base(self.base)

    def digit(self, i: int) -> int:
        while len(self._digits) <= i:
            self._digits.append(
                rng.digit_at(self.seed, self.index, len(self._digits), self.base)
            )
        return self._digits[i]

    def prefix_value(self, m: int) -> int:
        """Integer value of digits 0..m-1."""
        return digits_value((self.digit(i) for i in range(m - 1, -1, -1)), self.base)


@dataclass(frozen=True)
class DriftSample:
    delta: int
    carries: int
    digits_consumed: int


def sample_drift(sample, r: int, cap: int = DEFAULT_PROPAGATION_CAP) -> DriftSample:
    """Drift of the sampled digit string under addition of r.

    Realizes digits until the carry propagation of x + r dies, then reads
    the drift and the carry count off the digit sums of the consumed prefix.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    b = sample.base
    L = expand(r, b).digit_count()
    limit = L + cap
    m = L
    x = sample.prefix_value(L)
    block = b**L
    while x + r >= block:
        if m >= limit:
            raise PropagationCapExceeded(
                f"carry propagation exceeded {cap} digits past r; "
                "astronomically unlikely under a healthy digit source"
            )
        x += sample.digit(m) * block
        block *= b
        m += 1
    s_x = int_digit_sum(x, b)
    delta = int_digit_sum(x + r, b) - s_x
    carries = (int_digit_sum(r, b) - delta) // (b - 1)
    return DriftSample(delta, carries, m)


# --- vectorized batch sampling ----------------------------------------------


def sample_digit_matrix(
    r: int,
    base: int,
    n_samples: int,
    seed: int,
    first_index: int = 0,
    cap: int = DEFAULT_PROPAGATION_CAP,
) -> np.ndarray:
    """Digit prefixes wide enough that x + r never carries out, as an
    (n_samples, M) matrix with contiguous columns (the transpose of a
    position-major array), in rng.digit_block's dtype.

    Columns past a row's own propagation depth are still drawn (they are
    keyed by position, so values match the lazy scalar path); they cancel
    in any digit-sum difference.
    """
    check_base(base)
    L = max(expand(r, base).digit_count(), 1)
    _check_int64(base, L)
    keys = rng.sample_keys(seed, n_samples, first_index)
    cols = [rng.digit_block(keys, base, range(L)).T]
    _, pending = prefix_digit_sums(cols[0], (r,), base)
    j = L
    while pending.any():
        if j >= L + cap:
            raise PropagationCapExceeded(f"batch propagation exceeded cap {cap}")
        cols.append(rng.digit_block(keys, base, [j]).T)
        pending &= cols[-1][0] == base - 1
        j += 1
    return np.vstack(cols).T


def _check_int64(base: int, width: int) -> None:
    """The sweep holds digit + addend digit + carry (at most 2b - 1) and
    digit sums of up to width digits ((b-1) * width) in int64."""
    if 2 * base - 1 >= 2**63 or (base - 1) * width >= 2**63:
        raise Int64Overflow(f"sampler digit sums overflow int64 at base {base}, width {width}")


# elements (addends x samples) per pass of prefix_digit_sums; it bounds the
# pass's small-int carry buffers. The pass's int64 carry counts, kept in the
# output rows, take 8 bytes per element, so a pass does not stay in cache
_CHUNK = 1 << 18


def prefix_digit_sums(
    Xt: np.ndarray, addends, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """Digit sums of x + t for every addend t, in one sweep over positions.

    Xt is a position-major (M, n) digit matrix. Returns the (len(addends),
    n) int64 digit sums of (x + t) mod base**M and the carry out of the top
    position for the last addend; sample_digit_matrix widens the matrix
    until that carry is zero for r.
    """
    m, n = Xt.shape
    _check_int64(base, m)
    # digit + addend digit + carry is at most 2b - 1; carry counts are
    # moved to the int64 totals before they can overflow this type
    small = np.min_scalar_type(1 - 2 * base)
    span = np.iinfo(small).max
    D = np.zeros((len(addends), m, 1), dtype=small)
    for a, addend in enumerate(addends):
        td = expand(addend, base).digits
        D[a, : len(td), 0] = td
    s_t = D.sum(axis=1, dtype=np.int64)
    sums = np.zeros((len(addends), n), dtype=np.int64)
    carry_out = np.empty(n, dtype=bool)
    step = max(1, _CHUNK // len(addends))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        out = sums[:, lo:hi]  # carries are counted in the output rows
        t = np.empty(out.shape, dtype=small)
        carry = np.zeros_like(t)
        count = np.zeros_like(t)
        for j in range(m):
            np.add(Xt[j, lo:hi].astype(small), D[:, j], out=t)
            t += carry
            np.greater_equal(t, base, out=carry, casting="unsafe")
            count += carry
            if (j + 1) % span == 0:
                out += count
                count[:] = 0
        out += count
        # s((x + t) mod b^M) = s(x) + s(t) - (b-1)*carries - carry out
        out *= 1 - base
        out += s_t
        out -= carry
        out += Xt[:, lo:hi].sum(axis=0, dtype=np.int64)
        carry_out[lo:hi] = carry[-1]
    return sums, carry_out


def drift_samples(
    r: int, base: int, n_samples: int, seed: int, first_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drift draws: (delta, carries) arrays of length n_samples.

    Entry i equals sample_drift on LazyBadicSample(base, seed, first_index+i).
    """
    return drift_from_digits(
        sample_digit_matrix(r, base, n_samples, seed, first_index), r, base
    )


def drift_from_digits(X: np.ndarray, r: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, carries) of r on each row of a sample_digit_matrix(r, ...)."""
    (s_x, s_z), _ = prefix_digit_sums(X.T, (0, r), base)
    delta = s_z - s_x
    carries = (int_digit_sum(r, base) - delta) // (base - 1)
    return delta, carries
