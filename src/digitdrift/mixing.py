"""The per-block drift process and its mixing diagnostics.

Adding r block by block (most-significant first) splits the drift into one
contribution per nonzero block. The process is sampled in bulk with the
same keyed digit source as the scalar odometer, and an empirical mixing
coefficient is estimated over a fixed finite event family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import ClassVar

import numpy as np

from .digits import BlockKind, _block_prefixes, block_prefix_integers, check_base
from .digits import decompose_blocks, expand, int_digit_sum
from .errors import InsufficientSamples
from .exactdist import DriftDistribution, distribution
from .odometer import carry_counts, sample_digit_matrix, sample_drift

# Wilson score z for 99.9% two-sided confidence.
WILSON_Z = 3.290526731491926
MIN_EVENT_HITS = 50


@dataclass(frozen=True)
class MixingProcessSample:
    r: int
    base: int
    values: tuple[int, ...]  # one drift contribution per nonzero block
    total: int


def sample_process(sample, r: int) -> MixingProcessSample:
    """Per-block drift contributions of one sampled digit string.

    values[i-1] is the drift added by the i-th nonzero block (left to
    right); their sum is the full drift of r on this sample.
    """
    b = sample.base
    prefixes = block_prefix_integers(expand(r, b))
    # realize enough digits that x + r stays inside the prefix
    probe = sample_drift(sample, r)
    m = max(probe.digits_consumed, 1)
    x = sample.prefix_value(m)
    sums = [int_digit_sum(x + t, b) for t in prefixes]
    values = tuple(sums[i + 1] - sums[i] for i in range(len(prefixes) - 1))
    return MixingProcessSample(r, b, values, sums[-1] - sums[0])


def process_matrix(r: int, base: int, n_samples: int, seed: int) -> np.ndarray:
    """Per-block drift values for a batch: shape (n_samples, lambda), int16,
    or int64 when a value does not fit in int16 (large bases), with
    contiguous columns (the transpose of a block-major array).

    Row sums equal the plain drift draws for the same (seed, index).
    """
    return process_from_digits(sample_digit_matrix(r, base, n_samples, seed), r, base)


def process_from_digits(X: np.ndarray, r: int, base: int) -> np.ndarray:
    """process_matrix values of r on each row of a sample_digit_matrix(r, ...),
    in the same memory order: a view of the block-major array."""
    dec = decompose_blocks(expand(r, base))
    # X_i = s(t_i) - s(t_(i-1)) - (b-1) * (carries of x + t_i less those of
    # x + t_(i-1)), with t_0 = 0 carrying nowhere. The M columns hold every
    # carry: x + t_i <= x + r < b^M on this matrix, so none leaves the top
    V, _ = carry_counts(X.T, [*_block_prefixes(dec, 1)][1:], base)
    for i in range(len(V) - 1, 0, -1):  # np.diff, in place
        V[i] -= V[i - 1]
    V *= 1 - base
    # s(t_i) - s(t_(i-1)) is block i's digit sum, digit * length; it fits in
    # int64 once carry_counts has accepted the base
    sums = [blk.digit * blk.length for blk in dec.blocks if blk.kind is not BlockKind.ZERO]
    V += np.array(sums)[:, None]
    wide = V.size and (V.min() < -(2**15) or V.max() >= 2**15)
    return V.astype(np.int64 if wide else np.int16).T


def block_laws(r: int, base: int) -> list[DriftDistribution]:
    """Exact marginal law of each per-block contribution.

    Block i acts like adding its own run of digits (the zeros below it do
    not change the law), so the marginal is the drift distribution of that
    run alone.
    """
    blocks = decompose_blocks(expand(r, base)).blocks
    values = [blk.run(base) for blk in blocks if blk.kind is not BlockKind.ZERO]
    laws = {v: distribution(v, base) for v in set(values)}
    return [laws[v] for v in values]


def exact_median(dist: DriftDistribution) -> int:
    """Smallest lattice value d with P(X <= d) >= 1/2."""
    nums, den = dist._numerators
    above = 0  # numerator of the mass strictly above the current atom
    choice = dist.position(0)
    for k, n in enumerate(nums):
        if 2 * above > den:  # P(X <= d_k) = 1 - above / den < 1/2
            break
        choice = dist.position(k)
        above += n
    return choice


def exact_mode(dist: DriftDistribution) -> int:
    nums, _ = dist._numerators
    return dist.position(max(range(len(nums)), key=nums.__getitem__))


def phi_bound(k: int, base: int) -> float:
    """Mixing-coefficient bound 2*((b-1)/b)**(k/2 - 1); may exceed 1 for
    small k (trivially true there)."""
    check_base(base)
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * ((base - 1) / base) ** (k / 2 - 1)


def wilson_radius(successes: int, trials: int) -> float:
    """Half-width of the Wilson score interval at z = WILSON_Z."""
    if trials == 0:
        return 1.0
    z2 = WILSON_Z * WILSON_Z
    return (
        WILSON_Z
        * math.sqrt(successes * (trials - successes) / trials + z2 / 4.0)
        / (trials + z2)
    )


@dataclass(frozen=True)
class PhiEstimate:
    r: int
    base: int
    k: int
    p: int
    estimate: float  # max over event pairs of |P_A(B) - P(B)|
    ci: float  # combined Wilson radii at the maximizing pair
    bound: float
    samples: int
    a_events: int
    b_events: int
    event_family: ClassVar[str] = "default"

    @property
    def violated(self) -> bool:
        return self.estimate - self.ci > self.bound


def _event_table(Xt: np.ndarray, medians: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The four one-block events of every block, bit-packed: a (lambda, 4,
    words) uint64 table whose row [i, e] holds event e of block i, one bit
    per sample in np.packbits' little bit order, padding bits zero.

    Xt holds one block per row and medians[i], modes[i] are the exact
    median and mode of block i's law; the events are >= median, == mode,
    <= -1 and == 0. Blocks are packed one at a time, so the bool
    temporaries take 4 bytes per sample.
    """
    lam, n = Xt.shape
    table = np.zeros((lam, 4, -(-n // 64)), dtype=np.uint64)
    flat = table.view(np.uint8)
    four = np.empty((4, n), dtype=bool)
    for i, row in enumerate(Xt):
        np.greater_equal(row, medians[i], out=four[0])
        np.equal(row, modes[i], out=four[1])
        np.less_equal(row, -1, out=four[2])
        np.equal(row, 0, out=four[3])
        packed = np.packbits(four, axis=1, bitorder="little")
        flat[i, :, : packed.shape[1]] = packed
    return table


def _side_events(table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Packed event rows of the side made of blocks lo..hi-1 of an
    _event_table: the four one-block events per block, block-major; then,
    when the side has at least two blocks, the 16 intersections of its
    first and last block's events, the first block's event major.
    """
    rows = table[lo:hi].reshape(-1, table.shape[2])
    if hi - lo < 2:
        return rows
    pairs = table[lo][:, None] & table[hi - 1][None, :]
    return np.concatenate([rows, pairs.reshape(16, -1)])


def _hits(rows: np.ndarray) -> np.ndarray:
    """Samples in each packed event row."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.intp)


def estimate_phi_grid(r: int, base: int, ks, ps, X: np.ndarray) -> list[PhiEstimate]:
    """Empirical lower-bound estimates of the mixing coefficient, one per
    (k, p), k major.

    X is a process_matrix of (r, base), one sample per row. Each estimate
    maximizes |P_A(B) - P(B)| over the restricted event family, with A
    over the first p blocks and B over blocks at index >= p + k.
    Conditioning events with fewer than MIN_EVENT_HITS hits are dropped.
    The block laws, their medians and modes and the packed events are
    built once for the whole grid.
    """
    check_base(base)
    pairs = list(product(ks, ps))
    if any(k < 1 or p < 1 for k, p in pairs):
        raise ValueError("k and p must be >= 1")
    laws = block_laws(r, base)
    lam = len(laws)
    if X.ndim != 2 or X.shape[1] != lam:
        raise ValueError(f"X has shape {X.shape}, not (n, lambda(r) = {lam})")
    n_samples = X.shape[0]
    # block_laws hands out one object per distinct law: its thresholds are
    # computed once
    distinct = {id(law): law for law in laws}
    cut = {key: (exact_median(law), exact_mode(law)) for key, law in distinct.items()}
    medians, modes = np.array([cut[id(law)] for law in laws]).T
    table = _event_table(X.T, medians, modes)
    out = []
    for k, p in pairs:
        bound = phi_bound(k, base)
        if p + k > lam:
            # no blocks left beyond the gap: trivial sigma-algebra
            out.append(PhiEstimate(r, base, k, p, 0.0, 0.0, bound, n_samples, 0, 0))
            continue
        A = _side_events(table, 0, p)
        B = _side_events(table, p + k - 1, lam)
        count_a = _hits(A)
        keep = count_a >= MIN_EVENT_HITS
        if not keep.any():
            raise InsufficientSamples(
                f"every conditioning event has fewer than {MIN_EVENT_HITS} hits"
            )
        A = A[keep]
        count_a = count_a[keep]
        count_b = _hits(B)
        # exact pair counts, one A row against every B row at a time
        count_ab = np.empty((len(A), len(B)), dtype=np.intp)
        both = np.empty_like(B)
        for row, a in zip(count_ab, A):
            np.bitwise_and(B, a, out=both)
            row[:] = _hits(both)
        p_cond = count_ab / count_a[:, None]
        p_b = count_b / n_samples
        diffs = np.abs(p_cond - p_b[None, :])
        ai, bi = np.unravel_index(np.argmax(diffs), diffs.shape)
        estimate = float(diffs[ai, bi])
        ci = wilson_radius(int(count_ab[ai, bi]), int(count_a[ai])) + wilson_radius(
            int(count_b[bi]), n_samples
        )
        out.append(
            PhiEstimate(r, base, k, p, estimate, ci, bound, n_samples, len(A), len(B))
        )
    return out
