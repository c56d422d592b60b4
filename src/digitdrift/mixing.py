"""The per-block drift process and its mixing diagnostics.

Adding r block by block (most-significant first) splits the drift into one
contribution per nonzero block. The process is sampled in bulk with the
same keyed digit source as the scalar odometer, and an empirical mixing
coefficient is estimated over a fixed finite event family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .digits import BlockKind, block_prefix_integers, check_base, decompose_blocks, expand
from .digits import int_digit_sum, rho_lambda
from .errors import InsufficientSamples
from .exactdist import DriftDistribution, distribution
from .odometer import prefix_digit_sums, sample_digit_matrix, sample_drift

# Wilson score z for 99.9% two-sided confidence.
WILSON_Z = 3.290526731491926
MIN_EVENT_HITS = 50
# samples per slice of estimate_phi's pair counts; it bounds the float64
# copies of the event matrices
_PAIR_ROWS = 1 << 16


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
    or int64 when a value does not fit in int16 (large bases).

    Row sums equal the plain drift draws for the same (seed, index).
    """
    return process_from_digits(sample_digit_matrix(r, base, n_samples, seed), r, base)


def process_from_digits(X: np.ndarray, r: int, base: int) -> np.ndarray:
    """process_matrix values of r on each row of a sample_digit_matrix(r, ...)."""
    prefixes = block_prefix_integers(expand(r, base))
    sums, _ = prefix_digit_sums(X.T, prefixes, base)
    for i in range(len(sums) - 1, 0, -1):  # np.diff, in place
        sums[i] -= sums[i - 1]
    V = sums[1:].T
    wide = V.size and (V.min() < -(2**15) or V.max() >= 2**15)
    return np.ascontiguousarray(V, dtype=np.int64 if wide else np.int16)


def block_laws(r: int, base: int) -> list[DriftDistribution]:
    """Exact marginal law of each per-block contribution.

    Block i acts like adding its own run of digits (the zeros below it do
    not change the law), so the marginal is the drift distribution of that
    run alone.
    """
    values = [
        blk.value(base) // base**blk.position
        for blk in decompose_blocks(expand(r, base)).blocks
        if blk.kind is not BlockKind.ZERO
    ]
    laws = {v: distribution(v, base) for v in set(values)}
    return [laws[v] for v in values]


def exact_median(dist: DriftDistribution) -> int:
    """Smallest lattice value d with P(X <= d) >= 1/2."""
    cum_above = Fraction(0)  # mass strictly above the current atom
    half = Fraction(1, 2)
    choice = dist.position(0)
    for k, m in enumerate(dist.atoms):
        if 1 - cum_above >= half:
            choice = dist.position(k)
        else:
            break
        cum_above += m
    return choice


def exact_mode(dist: DriftDistribution) -> int:
    best_k = max(range(len(dist.atoms)), key=lambda k: dist.atoms[k])
    return dist.position(best_k)


def phi_bound(k: int, base: int) -> float:
    """Mixing-coefficient bound 2*((b-1)/b)**(k/2 - 1); may exceed 1 for
    small k (trivially true there)."""
    check_base(base)
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * ((base - 1) / base) ** (k / 2 - 1)


@dataclass(frozen=True)
class PhiHalfSums:
    n_terms: int
    phi_half: float  # sum of k * sqrt(min(1, bound(k)))
    phi_half_bar: float  # max(sqrt(phi_half), phi_half**2)


def phi_half_sums(base: int, n_terms: int) -> PhiHalfSums:
    """Partial sums of the weighted mixing series, with the bound capped at 1."""
    check_base(base)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    total = 0.0
    for k in range(1, n_terms + 1):
        total += k * math.sqrt(min(1.0, phi_bound(k, base)))
    return PhiHalfSums(n_terms, total, max(math.sqrt(total), total * total))


def smooth_gap_budget(
    third_moment_sum: float,
    second_sum: float,
    fourth_sum: float,
    h3_norm: float,
    phi_half_bar: float,
) -> float:
    """The paper's mixing bound on a smooth gap, checked by tests:
    ||h'''|| (5/2 + 28 Phi) S3 + 120 ||h'''|| Phi sqrt(S2) sqrt(S4), with S_j
    the summed normalized absolute block moments."""
    return h3_norm * (2.5 + 28.0 * phi_half_bar) * third_moment_sum + (
        120.0 * h3_norm * phi_half_bar * math.sqrt(second_sum) * math.sqrt(fourth_sum)
    )


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


def _side_events(X: np.ndarray, cols: list[int], cuts) -> np.ndarray:
    """Boolean event matrix for one side of the gap.

    Per index c, with cuts[c] = (exact median, exact mode) of its law: four
    one-coordinate events (>= median, == mode, <= -1, == 0); plus all 16
    combinations on the (first, last) index pair when the side has at least
    two indices.
    """
    preds = []
    per_col = {}
    for c in cols:
        col = X[:, c]
        median, mode = cuts[c]
        four = [col >= median, col == mode, col <= -1, col == 0]
        per_col[c] = four
        preds += four
    if len(cols) >= 2:
        i, j = cols[0], cols[-1]
        for evi in per_col[i]:
            for evj in per_col[j]:
                preds.append(evi & evj)
    return np.column_stack(preds)


def estimate_phi(r: int, base: int, k: int, p: int, X: np.ndarray) -> PhiEstimate:
    """Empirical lower-bound estimate of the mixing coefficient at gap k.

    X is a process_matrix of (r, base), one sample per row. Maximizes
    |P_A(B) - P(B)| over the restricted event family, with A over the first
    p blocks and B over blocks at index >= p + k. Conditioning events with
    fewer than MIN_EVENT_HITS hits are dropped.
    """
    check_base(base)
    if k < 1 or p < 1:
        raise ValueError("k and p must be >= 1")
    _, lam = rho_lambda(r, base)
    if X.ndim != 2 or X.shape[1] != lam:
        raise ValueError(f"X has shape {X.shape}, not (n, lambda(r) = {lam})")
    n_samples = X.shape[0]
    bound = phi_bound(k, base)
    if p + k > lam:
        # no blocks left beyond the gap: trivial sigma-algebra
        return PhiEstimate(r, base, k, p, 0.0, 0.0, bound, n_samples, 0, 0)
    laws = block_laws(r, base)
    # block_laws hands out one object per distinct law: its thresholds are
    # computed once
    distinct = {id(law): law for law in laws}
    cut = {key: (exact_median(law), exact_mode(law)) for key, law in distinct.items()}
    cuts = [cut[id(law)] for law in laws]
    a_cols = list(range(p))
    b_cols = list(range(p + k - 1, lam))
    A = _side_events(X, a_cols, cuts)
    B = _side_events(X, b_cols, cuts)
    count_a = A.sum(axis=0)
    keep = count_a >= MIN_EVENT_HITS
    if not keep.any():
        raise InsufficientSamples(
            f"every conditioning event has fewer than {MIN_EVENT_HITS} hits"
        )
    A = A[:, keep]
    count_a = count_a[keep]
    count_b = B.sum(axis=0)
    # pair counts summed over row slices: each partial sum is an integer
    # below 2**53, so the float64 total is exact
    count_ab = np.zeros((A.shape[1], B.shape[1]))
    for lo in range(0, n_samples, _PAIR_ROWS):
        hi = lo + _PAIR_ROWS
        count_ab += A[lo:hi].T.astype(np.float64) @ B[lo:hi].astype(np.float64)
    p_cond = count_ab / count_a[:, None]
    p_b = count_b / n_samples
    diffs = np.abs(p_cond - p_b[None, :])
    ai, bi = np.unravel_index(np.argmax(diffs), diffs.shape)
    estimate = float(diffs[ai, bi])
    ci = wilson_radius(
        int(round(count_ab[ai, bi])), int(count_a[ai])
    ) + wilson_radius(int(count_b[bi]), n_samples)
    return PhiEstimate(
        r, base, k, p, estimate, ci, bound, n_samples, A.shape[1], B.shape[1]
    )
