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
from .digits import check_base, expand, int_digit_sum
from .errors import PropagationCapExceeded

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

    def realized_count(self) -> int:
        return len(self._digits)

    def prefix_value(self, m: int) -> int:
        """Integer value of digits 0..m-1."""
        v = 0
        for i in range(m - 1, -1, -1):
            v = v * self.base + self.digit(i)
        return v


class ShiftedSample:
    """View of an underlying sample advanced by a fixed integer t.

    Shares the underlying randomness; digit i is the carry-correct digit of
    x + t, so digits 0..i of x determine it.
    """

    def __init__(self, source, offset: int):
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        self.base = source.base
        self.source = source
        self.offset = offset

    def digit(self, i: int) -> int:
        b = self.base
        block = b ** (i + 1)
        total = self.source.prefix_value(i + 1) + self.offset % block
        return (total // b**i) % b

    def prefix_value(self, m: int) -> int:
        block = self.base**m
        return (self.source.prefix_value(m) + self.offset % block) % block


def advance(sample, t: int):
    """View of sample + t over the same randomness. advance(advance(x, a), b)
    collapses to a single shift by a + b."""
    if isinstance(sample, ShiftedSample):
        return ShiftedSample(sample.source, sample.offset + t)
    return ShiftedSample(sample, t)


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
    if r == 0:
        return DriftSample(0, 0, 0)
    L = len(expand(r, b).digits)
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


def truncated_drift(sample, r: int, k: int) -> int:
    """Drift restricted to digit positions 0..k of x and of x + r."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    b = sample.base
    block = b ** (k + 1)
    x = sample.prefix_value(k + 1)
    z = (x + r) % block
    return int_digit_sum(z, b) - int_digit_sum(x, b)


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
    (n_samples, M) uint8 matrix.

    Columns past a row's own propagation depth are still drawn (they are
    keyed by position, so values match the lazy scalar path); they cancel
    in any digit-sum difference.
    """
    check_base(base)
    rd = expand(r, base).digits or (0,)
    L = len(rd)
    X = rng.digit_block(seed, base, n_samples, range(L), first_index)
    carry = np.zeros(n_samples, dtype=np.int16)
    for j in range(L):
        t = X[:, j].astype(np.int16) + rd[j] + carry
        carry = (t >= base).astype(np.int16)
    pending = carry.astype(bool)
    j = L
    cols = []
    while pending.any():
        if j >= L + cap:
            raise PropagationCapExceeded(f"batch propagation exceeded cap {cap}")
        col = rng.digit_column(seed, base, n_samples, j, first_index)
        cols.append(col)
        pending &= col == base - 1
        j += 1
    if cols:
        X = np.hstack([X] + [c.reshape(-1, 1) for c in cols])
    return X


def _add_digit_sums(X: np.ndarray, r: int, base: int) -> np.ndarray:
    """Per-row digit sum of (row value + r), all additions staying inside
    the matrix width."""
    n, m = X.shape
    rd = expand(r, base).digits
    rd += (0,) * (m - len(rd))
    carry = np.zeros(n, dtype=np.int16)
    total = np.zeros(n, dtype=np.int64)
    for j in range(m):
        t = X[:, j].astype(np.int16) + rd[j] + carry
        carry = (t >= base).astype(np.int16)
        total += t - base * carry
    # no carry out of the top by construction of sample_digit_matrix
    if carry.any():
        raise PropagationCapExceeded("digit matrix too narrow for this addend")
    return total


def drift_samples(
    r: int,
    base: int,
    n_samples: int,
    seed: int,
    first_index: int = 0,
    cap: int = DEFAULT_PROPAGATION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drift draws: (delta, carries) arrays of length n_samples.

    Entry i equals sample_drift on LazyBadicSample(base, seed, first_index+i).
    """
    if r == 0:
        z = np.zeros(n_samples, dtype=np.int64)
        return z, z.copy()
    X = sample_digit_matrix(r, base, n_samples, seed, first_index, cap)
    s_x = X.astype(np.int64).sum(axis=1)
    s_z = _add_digit_sums(X, r, base)
    delta = s_z - s_x
    carries = (int_digit_sum(r, base) - delta) // (base - 1)
    return delta, carries
