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
from ._heap import prime_heap
from .digits import check_base, digits_value, expand, int_digit_sum
from .errors import Int64Overflow, PropagationCapExceeded, TooManySamples

# digits a carry may run past r; a healthy digit source gets that far with
# probability at most b**-4096. Read at call time, not bound as a default
PROPAGATION_CAP = 4096
# the most samples one batch may draw. At 10**6 samples the README's
# `simulate` and `phi` commands peak 44 to 221 bytes per sample above the
# interpreter's own memory (more for a wider r), so a batch at the bound
# takes about 0.7 to 3.7 GB; a refused one allocates nothing
MAX_SAMPLES = 2**24
# the most digit cells (samples times r's digit count) one batch may draw.
# A cell peaks at 2.0 to 3.8 bytes for `simulate` and 3.5 to 11.5 with
# `--process` (r of 32 to 1000 digits in bases 2, 10 and 200, at 10**5 and
# 2*10**5 samples), so a batch at the bound takes up to about 3 GB; criterion
# 8 draws 10**6 samples of a 32-bit r, 3.2*10**7 cells
MAX_CELLS = 2**28


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


def sample_drift(sample, r: int) -> DriftSample:
    """Drift of the sampled digit string under addition of r.

    Realizes digits until the carry propagation of x + r dies, then reads
    the drift and the carry count off the digit sums of the consumed prefix.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    b = sample.base
    L = expand(r, b).digit_count()
    m = L
    x = sample.prefix_value(L)
    block = b**L
    while x + r >= block:
        if m >= L + PROPAGATION_CAP:
            raise PropagationCapExceeded(
                f"carry propagation exceeded {PROPAGATION_CAP} digits past r; "
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
    r: int, base: int, n_samples: int, seed: int, first_index: int = 0
) -> np.ndarray:
    """Digit prefixes wide enough that x + r never carries out, as an
    (n_samples, M) matrix with contiguous columns (the transpose of a
    position-major array), in rng.digit_block's dtype.

    Row i holds the digits that sample_drift(LazyBadicSample(base, seed,
    first_index + i), r) realizes, always at least the first max(L, 1),
    and zeros past them. A column past r's L digits is drawn only for the
    rows whose carry reaches it: those still carrying out of the column
    before, whose digit there is b - 1.
    """
    check_base(base)
    if n_samples > MAX_SAMPLES:
        raise TooManySamples(f"{n_samples} samples is past the bound of {MAX_SAMPLES}")
    L = max(expand(r, base).digit_count(), 1)
    if n_samples * L > MAX_CELLS:
        raise TooManySamples(
            f"{n_samples} samples of {L} digits is past the bound of {MAX_CELLS} digit cells"
        )
    _check_int64(base, L)
    # the keys, the digit columns and the sweep's buffers are each a few
    # hundred KB to a few MB: a block of 8 bytes per cell primes the heap
    # for them
    prime_heap(8 * n_samples * L)
    keys = rng.sample_keys(seed, n_samples, first_index)
    head = rng.digit_block(keys, base, range(L)).T
    _, pending = carry_counts(head, (r,), base)
    rows = np.flatnonzero(pending)
    tail = []  # (rows, digits) of each column past the head
    while rows.size:
        if len(tail) >= PROPAGATION_CAP:
            raise PropagationCapExceeded(f"batch propagation exceeded cap {PROPAGATION_CAP}")
        col = rng.digit_block(keys[rows], base, [L + len(tail)])[:, 0]
        tail.append((rows, col))
        rows = rows[col == base - 1]
    Xt = np.zeros((L + len(tail), n_samples), dtype=head.dtype)
    Xt[:L] = head
    for j, (rows, col) in enumerate(tail, L):
        Xt[j, rows] = col
    return Xt.T


def _check_int64(base: int, width: int) -> None:
    """The sweep holds digit + addend digit + carry (at most 2b - 1) in
    int64, and its callers hold (b-1) times up to width carries there."""
    if 2 * base - 1 >= 2**63 or (base - 1) * width >= 2**63:
        raise Int64Overflow(f"sampler digit sums overflow int64 at base {base}, width {width}")


# elements (addends x samples) per pass of carry_counts; it bounds the
# pass's small-int carry buffers. The pass's int64 carry counts, kept in the
# output rows, take 8 bytes per element, so a pass does not stay in cache
_CHUNK = 1 << 18


def carry_counts(Xt: np.ndarray, addends, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Carry counts of x + t for every addend t, in one sweep over positions.

    Xt is a position-major (M, n) digit matrix. Returns the (len(addends),
    n) int64 counts of the carries of x + t, the one out of the top position
    included, and that top carry out for the last addend;
    sample_digit_matrix widens the matrix until it is zero for r.
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
    counts = np.zeros((len(addends), n), dtype=np.int64)
    carry_out = np.empty(n, dtype=bool)
    step = max(1, _CHUNK // len(addends))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        out = counts[:, lo:hi]
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
        carry_out[lo:hi] = carry[-1]
    return counts, carry_out


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
    (carries,), _ = carry_counts(X.T, (r,), base)
    return int_digit_sum(r, base) - (base - 1) * carries, carries
