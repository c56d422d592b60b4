"""Distance-to-normal diagnostics for the normalized drift laws.

The normalized law puts mass at d/sigma_r. The CDF distance against the
standard normal is bracketed exactly (up to the certified tail), smooth
gaps are computed from the atoms, and rate tables track how both scale
with the block count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import check_base, rho_lambda
from .errors import InvalidBase, InvalidEpsilon, TailTooHeavy, ZeroHasNoBlocks
from .exactdist import (
    DriftDistribution,
    distribution,
    tail_abs_moment_bound,
    variance_exact,
)

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
KS_TAIL_LIMIT = 1e-6
CHAIN_GRID_POINTS = 801  # shift points spanning the support in mollifier_chain_check
# criterion 9's rate gate: a normalized column's max/min over the rows with
# rho >= RATE_MIN_RHO stays within RATE_RATIO_CAP
RATE_MIN_RHO = 16
RATE_RATIO_CAP = 10.0

# sup |f'''| of the mollifier profile, attained at 1/2 (value 105/2).
MOLLIFIER_D3_SUP = 52.5


def normal_cdf(t: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-t / SQRT2)


def _normal_cdf_array(ts: np.ndarray) -> np.ndarray:
    """normal_cdf(t) for every t in ts, bit for bit: numpy's `-ts / SQRT2`
    rounds as the scalar division does (IEEE division is correctly
    rounded), math.erfc runs on the same doubles, and `0.5 *` is exact."""
    return 0.5 * np.fromiter(map(math.erfc, (-ts / SQRT2).tolist()), float, len(ts))


def normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / SQRT2PI


def mollifier_profile(t):
    """C^3 ramp from 1 to 0 across [0, 1]; first three derivatives vanish
    at both endpoints (degree-7 smoothstep, mirrored). Takes a float or an
    array; the polynomial is exactly 1.0 at 0 and 0.0 at 1, so clipping
    gives the flat ends."""
    # np.clip costs ~6 us on a scalar, and smooth_gap calls this per ramp atom
    t = np.clip(t, 0.0, 1.0) if isinstance(t, np.ndarray) else min(max(t, 0.0), 1.0)
    return 1.0 - t**4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t**3)


def mollifier_profile_d3(t: float) -> float:
    """Third derivative of the profile on [0, 1]: -840 t (1-t) (5t^2-5t+1)."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -840.0 * t * (1.0 - t) * (5.0 * t * t - 5.0 * t + 1.0)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEpsilon(f"eps must be finite and > 0, got {eps}")


def mollifier(t: float, eps: float, u: float) -> float:
    """Smooth indicator of (-inf, t]: 1 below t - eps, 0 above t + eps,
    profile((eps - t + u)/(2 eps)) in between. ||third derivative|| =
    MOLLIFIER_D3_SUP / (8 eps^3)."""
    _check_eps(eps)
    return mollifier_profile((eps - t + u) / (2.0 * eps))


def mollifier_d3_norm(eps: float) -> float:
    """MOLLIFIER_D3_SUP / (8 eps^3) for every finite eps > 0: inf where it
    overflows, 0.0 only below half the smallest subnormal."""
    _check_eps(eps)
    try:
        denom = 8.0 * eps**3
    except OverflowError:  # eps**3 past the largest double
        denom = math.inf
    if 0.0 < denom < math.inf:
        return MOLLIFIER_D3_SUP / denom
    # eps^3 under- or overflowed: the exact quotient, rounded once
    try:
        return float(Fraction(MOLLIFIER_D3_SUP) / (8 * Fraction(eps) ** 3))
    except OverflowError:
        return math.inf


# --- normalized atoms -------------------------------------------------------


def normalized_support(dist: DriftDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(positions, masses) of the normalized law, positions ascending, as
    read-only arrays built once per law object.

    The zero-variance case (r = 0) degenerates to a unit mass at 0.
    """
    return dist.normalized_support


def _checked_tail(dist: DriftDistribution) -> float:
    tail = float(dist.tail_mass)
    if tail >= KS_TAIL_LIMIT:
        raise TailTooHeavy(f"tail mass {tail} >= {KS_TAIL_LIMIT}")
    return tail


def ks_distance(dist: DriftDistribution) -> tuple[float, float]:
    """Bracket of sup_t |F_r(t) - Phi(t)| for the normalized law.

    Exact at and between the atoms; the unknown tail (all of it below the
    lowest computed atom) widens the upper end, as does the normal mass
    beyond the computed support.
    """
    tail = _checked_tail(dist)
    pos, mass = normalized_support(dist)
    cdf_vals = _normal_cdf_array(pos)
    cum = tail + np.concatenate(([0.0], np.cumsum(mass)))
    # F at the left limit of atom j is cum[j], at the atom cum[j+1]
    d_atoms = max(
        float(np.max(np.abs(cum[:-1] - cdf_vals))),
        float(np.max(np.abs(cum[1:] - cdf_vals))),
    )
    lo = d_atoms
    hi = max(d_atoms, tail, float(cdf_vals[0]))
    return lo, hi + 1e-13  # cover float rounding of the CDF evaluations


GAUSS_NODES = 64
_leg_nodes, _leg_weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
_profile_at_nodes = np.array([mollifier_profile((1.0 + u) / 2.0) for u in _leg_nodes])
# the chain check's screening rule (mollifier_chain_check). 16 nodes keep
# its margin at the rounding allowance out to eps ~ 2.5 (8 nodes to ~ 0.7,
# 12 to ~ 1.8): on the clt-warm laws at eps = 3 it leaves 1 point to the
# 64-node rule, where 12 nodes leave 37 and 8 the whole grid, and it costs
# about 0.04 ms more per check than 8 nodes
SCREEN_NODES = 16
_screen_nodes, _screen_leg_weights = np.polynomial.legendre.leggauss(SCREEN_NODES)
# weight * profile at the node * 1/sqrt(2 pi), one product per node
_screen_weights = (
    _screen_leg_weights
    * np.array([mollifier_profile((1.0 + u) / 2.0) for u in _screen_nodes])
    / SQRT2PI
)

# In u = (x - t)/eps the ramp integral is int_{-1}^{1} f(u) du with
# f(u) = eps p(u) phi(t + eps u), p(u) = profile((1 + u)/2) = sum_i a_i u^i
# of degree 7; profile(s) = 1 - 35 s^4 + 84 s^5 - 70 s^6 + 20 s^7.
_RAMP_POLY = [
    sum(c * math.comb(j, i) / 2**j for j, c in enumerate((1, 0, 0, 0, -35, 84, -70, 20)))
    for i in range(8)
]
# sup over [-1, 1] of |p^(k)|, k = 0..7, bounded by the sum of |coefficients|
# of p^(k) (dyadic rationals, exact in floats)
_RAMP_POLY_DERIV_SUP = [
    sum(abs(a) * math.perm(i, k) for i, a in enumerate(_RAMP_POLY)) for k in range(8)
]
# Cramer's inequality |He_m(x)| e^(-x^2/4) <= K sqrt(m!), so
# |phi^(m)| = |He_m| phi <= K sqrt(m!) / sqrt(2 pi) on the whole line
CRAMER_K = 1.086435


@functools.cache
def _error_bound_logs(n: int) -> tuple[float, tuple[float, ...]]:
    """log of the n-node constant 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) times
    K / sqrt(2 pi), and log C(2n, k) sup|p^(k)| sqrt((2n-k)!) for k = 0..7:
    the parts of gauss_legendre_error_bound that do not depend on eps."""
    m = 2 * n
    log_const = (
        (m + 1) * math.log(2.0) + 4 * math.lgamma(n + 1) - math.log(m + 1)
        - 3 * math.lgamma(m + 1) + math.log(CRAMER_K / SQRT2PI)
    )
    log_coefs = tuple(
        math.lgamma(m + 1) - math.lgamma(k + 1) - 0.5 * math.lgamma(m - k + 1) + math.log(sup_pk)
        for k, sup_pk in enumerate(_RAMP_POLY_DERIV_SUP)
    )
    return log_const, log_coefs


def gauss_legendre_error_bound(n: int, eps: float) -> float:
    """Bound on |n-node Gauss-Legendre sum - exact ramp integral| for every
    shift t at width eps: 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) sup|f^(2n)|,
    with sup|f^(2n)| <= eps sum_k C(2n, k) sup|p^(k)| eps^(2n-k) sup|phi^(2n-k)|
    by Leibniz (p^(k) = 0 past k = 7). Summed in log space; inf when it
    overflows. The exponent's own rounding (lgamma and log, relative
    1e-13) is covered by adding 1e-9 to it."""
    log_const, log_coefs = _error_bound_logs(n)
    log_eps = math.log(eps)
    terms = [c + (2 * n - k) * log_eps for k, c in enumerate(log_coefs)]
    top = max(terms)
    log_bound = log_const + log_eps + top + math.log(sum(math.exp(x - top) for x in terms)) + 1e-9
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def _widest_certified_eps(n: int, tol: float) -> float:
    """The largest double eps with gauss_legendre_error_bound(n, eps) <= tol
    (the bound grows with eps), by doubling and then bisection."""
    lo, hi = 1.0, 2.0
    while gauss_legendre_error_bound(n, hi) <= tol:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if gauss_legendre_error_bound(n, mid) <= tol else (lo, mid)
    return lo


# the widest mollifier ramp the 64-node rule resolves to 2^-40 (about 10.6):
# the Gaussian side (gaussian_mollifier_expectation, smooth_gap's mollifier,
# mollifier_chain_check) refuses a wider one
GAUSS_EPS_MAX = _widest_certified_eps(GAUSS_NODES, 2.0**-40)


def _check_quadrature_eps(eps: float) -> None:
    _check_eps(eps)
    if eps > GAUSS_EPS_MAX:
        raise InvalidEpsilon(
            f"eps must be <= GAUSS_EPS_MAX = {GAUSS_EPS_MAX!r}, the widest ramp "
            f"{GAUSS_NODES} Gauss-Legendre nodes resolve to 2^-40, got {eps}"
        )


def gaussian_mollifier_expectation(t: float, eps: float) -> float:
    """E mollifier(t, eps, Y) for standard normal Y, by Gauss-Legendre on
    the ramp interval plus the exact CDF below it. The scalar reference
    for _gaussian_mollifier_expectations."""
    if not math.isfinite(t):
        raise ValueError(f"shift point t must be finite, got {t}")
    _check_quadrature_eps(eps)
    x = t + eps * _leg_nodes
    dens = np.exp(-0.5 * x * x) / SQRT2PI
    ramp = eps * float(np.sum(_leg_weights * _profile_at_nodes * dens))
    return normal_cdf(t - eps) + ramp


def _gaussian_mollifier_expectations(ts: np.ndarray, eps: float) -> np.ndarray:
    """gaussian_mollifier_expectation(t, eps) for every t in ts, in one
    (len(ts), GAUSS_NODES) pass that repeats the scalar operations in the
    same order, so each value is bit-identical to the scalar one. ts must
    be finite and eps checked by the caller."""
    x = ts[:, None] + eps * _leg_nodes
    dens = x * -0.5
    dens *= x  # -0.5 * x * x
    np.exp(dens, out=dens)
    dens /= SQRT2PI
    dens *= _leg_weights * _profile_at_nodes
    ramp = eps * dens.sum(axis=1)
    return _normal_cdf_array(ts - eps) + ramp


def _screen_ramps(ts: np.ndarray, eps: float) -> np.ndarray:
    """The ramp part of E h_t(Y) for every t in ts by the SCREEN_NODES rule,
    within gauss_legendre_error_bound(SCREEN_NODES, eps) plus rounding of
    the exact integral."""
    x = ts[:, None] + eps * _screen_nodes
    dens = x * -0.5
    dens *= x
    np.exp(dens, out=dens)
    return eps * (dens @ _screen_weights)


def _ramp_window(pos: np.ndarray, c, two_eps: float):
    """Index bounds (j0, j1) of the atoms on the ramp of h_t, c = eps - t,
    for a float c or an array of them; pos must be ascending. With
    arg = fl(fl(c + u) / two_eps), as mollifier() rounds it:

    - before j0, u <= -c, so fl(c + u) <= 0 and arg <= 0. j0 is exact for
      fl(c + u): a sum of two doubles rounds to 0 only when it is 0. arg
      itself can still underflow to 0 past j0, so callers run the full
      per-atom test on the window.
    - from j1 on, u > fl(two_eps - c). A double above the rounding of a real
      is above the real, so c + u > two_eps, fl(c + u) >= two_eps (a double;
      rounding is monotone) and arg >= 1. No margin is needed, and the atoms
      need not be distinct.

    Where two_eps - c is not finite (an overflow, or t not a number) the
    window is the whole support.
    """
    j0 = np.searchsorted(pos, -c, side="right")
    j1 = np.searchsorted(pos, two_eps - c, side="right")
    whole = ~np.isfinite(two_eps - c)
    return np.where(whole, 0, j0), np.where(whole, len(pos), j1)


def smooth_gap(dist: DriftDistribution, h) -> float:
    """|E h(Z) - E h(Y)| with Z the normalized drift and Y standard normal.

    h is "cubic", "sin", or ("mollifier", t, eps). The atom sum is exact up
    to the certified tail; E h(Y) is analytic (odd h) or quadrature.

    The mollifier is 1.0 before its ramp window (_ramp_window) and 0.0
    past it; on the window it stays a per-atom scalar loop on purpose:
    numpy's array `**` and the scalar `**` can differ in the last bit, and
    the scalar values are the ones pinned by the tests. The loop runs over
    Python floats (pos.tolist()), not np.float64 scalars: both round the
    profile the same, and Python float arithmetic is the cheaper of the two.
    """
    tail = _checked_tail(dist)
    pos, mass = normalized_support(dist)
    if h == "cubic":
        e_z = float(np.sum(mass * pos**3))
        e_y = 0.0
    elif h == "sin":
        e_z = float(np.sum(mass * np.sin(pos)))
        e_y = 0.0
    elif isinstance(h, tuple) and h[0] == "mollifier":
        _, t, eps = h
        _check_quadrature_eps(eps)
        e_y = gaussian_mollifier_expectation(t, eps)
        j0, j1 = (int(j) for j in _ramp_window(pos, eps - t, 2.0 * eps))
        # mollifier(t, eps, u) per atom, with eps checked once; the clipped
        # profile is exactly 1.0 and 0.0 off the window
        vals = np.zeros(len(pos))
        vals[:j0] = 1.0
        vals[j0:j1] = [mollifier_profile((eps - t + u) / (2.0 * eps)) for u in pos[j0:j1].tolist()]
        # tail atoms sit far left where the mollifier is 1
        e_z = float(np.sum(mass * vals)) + tail
    else:
        raise ValueError(f"unknown function descriptor {h!r}")
    return abs(e_z - e_y)


def third_abs_moment_normalized(dist: DriftDistribution) -> float:
    """E|Z|^3 of the normalized law, the third-moment term of the paper's
    bounds, with the certified tail bound added; checked by tests."""
    pos, mass = normalized_support(dist)
    partial = float(np.sum(mass * np.abs(pos) ** 3))
    if dist.r == 0:
        return partial
    sigma = math.sqrt(variance_exact(dist.r, dist.base))
    return partial + float(tail_abs_moment_bound(dist, 3)) / sigma**3


@dataclass(frozen=True)
class MollifierChainCheck:
    eps: float
    ks_hi: float
    smooth_sup: float  # max over the probe grid of |E h_t(Z) - E h_t(Y)|
    slack: float  # 4 eps / sqrt(2 pi)

    @property
    def holds(self) -> bool:
        return self.ks_hi <= self.smooth_sup + self.slack + 1e-10


def _mollifier_expectations_z(
    pos: np.ndarray, mass: np.ndarray, ts: np.ndarray, eps: float
) -> np.ndarray:
    """sum_u mollifier(t, eps, u) * mass(u) over the computed atoms for
    every t in ts, as a banded sum: the prefix of the masses before each
    ramp window, then the window terms in atom order. These are the
    roundings of the (points x atoms) product summed along each row from
    the first atom, bit for bit: np.cumsum adds in order, the prefix terms
    are 1.0 * mass, and the zeros past each window would add nothing."""
    n = len(pos)
    two_eps = 2.0 * eps
    c = eps - ts
    j0, j1 = _ramp_window(pos, c, two_eps)
    e_z = np.concatenate(([0.0], np.cumsum(mass)))[j0]
    # (window column, point): row k holds atom j0 + k of every point
    idx = j0 + np.arange(int((j1 - j0).max()))[:, None]
    inside = idx < n
    idx = np.minimum(idx, n - 1)
    arg = (c + pos[idx]) / two_eps
    # 1.0, the profile or 0.0 by the same tests as for a whole row
    terms = (inside & (arg <= 0)).astype(np.float64)
    ramp = inside & (arg > 0) & (arg < 1)
    terms[ramp] = mollifier_profile(arg[ramp])
    terms *= mass[idx]
    for row in terms:
        e_z += row
    return e_z


# Where the sup of the chain check can sit. Let V(t) = |e_z(t) - e_y(t)| be
# the gap with the 64-node e_y (_gaussian_mollifier_expectations) and A(t)
# the same with the SCREEN_NODES ramp, both as computed, on the same e_z
# and Phi(t - eps). Then |A(t) - V(t)| <= delta = T16 + T64 + R:
# - T_n = gauss_legendre_error_bound(n, eps) bounds each rule's error on
#   the exact integral;
# - R = 2^-30 bounds what floats add, for eps <= GAUSS_EPS_MAX (about
#   10.6). A rule sums eps w p phi(t + eps u) over its nodes, with w > 0
#   summing to 2, 0 <= p <= 1 and phi <= 0.4. numpy's nodes are within
#   2^-53 of the exact ones, its weights within 2^-45.7 in total and the
#   profile at the nodes within 2^-46, so the stored constants move a rule
#   by under 0.4 eps (2^-45.7 + 2 * 2^-46) < 2^-42. phi(x) comes out within
#   (1.5 x^2 + 10) 2^-53 of itself, relative: x and x^2 / 2 round once
#   each, and exp (4 ulp) and the scaling by 1/sqrt(2 pi) add the 10. As
#   |x^2 phi(x)| <= 0.3, that moves a rule by under 2 eps 4.5 2^-53 < 2^-46.
#   Summing <= 64 positive terms of total <= 1 adds 2^-47. Both rules,
#   Phi + ramp, e_z - e_y and the threshold below stay under 2^-40 in all,
#   2^10 times below R.
# A dropped t has A(t) < max A - 2 delta, so
#   V(t) <= A(t) + delta < max A - delta <= V(t*)
# for t* an arg-max of A, which is always kept. So the max of V over the
# kept points is the max over all of them, and it is the same double: the
# 64-node rule and the max run per point (row by row, like the scalar
# twin gaussian_mollifier_expectation), whatever else is in the batch.
SCREEN_ROUNDING = 2.0**-30


def _screen_margin(eps: float) -> float:
    """delta of the screen: T16 + T64 + R (see above); inf past the bound."""
    return (
        gauss_legendre_error_bound(SCREEN_NODES, eps)
        + gauss_legendre_error_bound(GAUSS_NODES, eps)
        + SCREEN_ROUNDING
    )


def _sup_candidates(a: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the points whose screened gap a is within 2 delta of the
    max, where the max of the 64-node gap can sit; every point if a value
    of a or delta is not finite (the 64-node pass over all of them)."""
    if not (math.isfinite(delta) and np.isfinite(a).all()):
        return np.ones(len(a), dtype=bool)
    return a >= a.max() - 2.0 * delta


# The cut: which grid points can hold the sup at all (_chain_grid). Let
# u = 2^-53, n the atom count (n < 2^40), cum the np.cumsum of the masses
# after a 0 (it adds in atom order, so cum is nondecreasing), omega =
# |1 - tail - cum[n]| (the masses round a law's, which sum to at most 1,
# and 0 <= tail < 1, so omega < 2), [j0, j1) a point's window from
# _ramp_window, E_z and E_y the computed E h_t(Z) (banded sum, then + tail)
# and 64-node E h_t(Y), G = E h_t(Y) exactly, and Phi the exact normal CDF.
# The shift points are finite (the atoms are normalized, eps <=
# GAUSS_EPS_MAX), so every window is the searchsorted one. With
#   BL(t) = max(fl(cum[j1] + tail), Phi(t + eps))  (nondecreasing in t),
#   BR(t) = max(fl(cum[n] - cum[j0]), Phi(eps - t))  (nonincreasing in t),
#   allowance = T64 + R + omega + Z,  Z = (n + 2^12) 2^-52 (1 + omega),
# we show V(t) < min(BL(t), BR(t)) + allowance - PHI, PHI = 2^-41. Facts:
# (a) E_z <= fl(cum[j1] + tail), with no rounding term: the banded sum
#     starts at cum[j0] and adds the window terms in atom order, each at
#     most its mass (the computed profile is 1.0 minus a product of
#     nonnegative factors), then zeros; cum adds the masses themselves in
#     the same order, and rounding is monotone.
# (b) E_z >= cum[j0] + tail - Z/2 - e, e < 2^-50. The computed profile is
#     within 2^-41 of the exact one, which is >= 0 (nine roundings of at
#     most u times an intermediate below 209 in 1 - t^4 (35 - 84 t + 70 t t
#     - 20 t^3), t^4 and t^3 within 3u, t^4 <= 1), so the window terms add
#     at least -2^-41 (1 + 2 (n + 1) u) (1 + omega), the masses summing to
#     at most cum[n] / (1 - n u) <= (1 + omega) / (1 - n u); the <= n + 1
#     additions (window terms, then tail) round by at most u (1 + omega)
#     each, no partial sum being larger. With Z/2 = n u (1 + omega) +
#     2^-41 (1 + omega), that leaves e = u (1 + omega) (1 + 2^-40 (n + 1)).
# (c) |E_y - G| <= T64 + R', R' = 2^-39: the rule's float terms stay under
#     2^-40 (above); 0.5 math.erfc (the C library's, a few ulp) and the
#     roundings of its argument (t -+ eps, the division by the rounded
#     sqrt 2, each moving Phi by at most u sup |x phi(x)| < u) put
#     normal_cdf within PHI of Phi at the real point; the sum rounds once.
# (d) 0 <= G <= Phi(t + eps) and 1 - G <= Phi(eps - t): h_t is 0 past
#     t + eps and 1 before t - eps.
# (e) E_z <= fl(cum[n] + tail) <= 1 + omega + 3u by (a); omega as computed
#     is within 3u (1 + omega) of the exact one; the allowance's own
#     roundings are under 10u; and V = fl(|E_z - E_y|) adds at most 7u, as
#     |E_z|, |E_y| < 3.1.
# Left: E_z - E_y <= fl(cum[j1] + tail) + T64 + R' by (a), (c), (d); and
# E_y - E_z <= Phi(t + eps) + T64 + R' + Z/2 + e by (b), (c), (d).
# Right, as 1 - tail - cum[j0] = (cum[n] - cum[j0]) + (1 - tail - cum[n])
# and the exact difference cum[n] - cum[j0] is within 3u of its rounding:
# E_y - E_z = (1 - E_z) + (E_y - 1) <= fl(cum[n] - cum[j0]) + 3u + omega
# + Z/2 + e + T64 + R' by (b), (c), (d); and E_z - E_y = (E_z - 1) +
# (1 - E_y) <= omega + 3u + Phi(eps - t) + T64 + R' by (e), (c), (d).
# In all four, with the roundings of (e), V(t) <= B(t) + T64 + R' +
# omega + Z/2 + 2^-46 < B(t) + allowance - PHI, as R' + PHI + 2^-46 <
# 2^-38 < R; B is BL on the left and BR on the right, so V is under both.
# A dropped t has fl(fl(cum[j1] + tail) + allowance) < theta (theta is a
# double, rounding monotone, so fl(cum[j1] + tail) < theta - allowance) and
# t <= g_lo, where fl(normal_cdf(g_lo + eps) + allowance) < theta, so
# Phi(t + eps) <= Phi(g_lo + eps) < theta - allowance + PHI by (c); so
# BL(t) < theta - allowance + PHI and V(t) < theta. Or the mirror on the
# right, with fl(cum[n] - cum[j0]) and g_hi. And theta <= max V: the
# coarse points are grid points; at the arg-max t* of A over them the
# screen's own bound gives V(t*) >= max A - T16 - T64 - 2^-40 (its floats,
# before R), while theta = fl(max A - delta) <= max A - T16 - T64 - R +
# 2^-50. So every t with V(t) >= theta is kept, with the arg-max of V among
# them; the screen's argument above holds on any set of grid points that
# contains it, so it finds the max over the kept points, which is the max
# over the whole grid, and the same double, as V is computed per point
# whatever else is in the batch. Where theta is not a finite number above
# the allowance (a gap not a number) nothing could be cut, and the whole
# grid is used. So it is, without the coarse screen, where delta >= ks_hi
# (delta = inf among them; delta > 1 from eps = 6 up): h_t falls from 1 to
# 0, so the exact gap is an average of F_Z - Phi and at most the KS
# distance, and theta = max A - delta could pass the allowance only by the
# 16-node rule's own error, not by its bound. The whole grid is always a
# sound choice; this one only saves the screen where the cut finds nothing.
CUT_STRIDE = 16  # every CUT_STRIDE-th span point screens for theta


def _screened_gaps(
    pos: np.ndarray, mass: np.ndarray, tail: float, ts: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(e_z, A) at every t in ts: E h_t(Z) with the tail, and the screened
    gap |e_z - (Phi(t - eps) + the SCREEN_NODES ramp)|."""
    e_z = _mollifier_expectations_z(pos, mass, ts, eps) + tail
    return e_z, np.abs(e_z - (_normal_cdf_array(ts - eps) + _screen_ramps(ts, eps)))


def _cut_allowance(eps: float, n: int, omega: float) -> float:
    """The cut's allowance T64 + R + omega + Z for n atoms (see above)."""
    z = (n + 2**12) * 2.0**-52 * (1.0 + omega)
    return gauss_legendre_error_bound(GAUSS_NODES, eps) + SCREEN_ROUNDING + omega + z


def _gaussian_cut(ts: np.ndarray, eps: float, allowance: float, theta: float) -> float:
    """A t in ts (ascending) with fl(normal_cdf(t + eps) + allowance) <
    theta, the last one by bisection, or -inf if none is found. Only the
    returned point's test is relied on: Phi is increasing, so every t' up
    to it has Phi(t' + eps) < theta - allowance + PHI."""
    lo, hi = -1, len(ts)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if normal_cdf(float(ts[mid]) + eps) + allowance < theta:
            lo = mid
        else:
            hi = mid
    return float(ts[lo]) if lo >= 0 else -math.inf


def _chain_grid(
    pos: np.ndarray, mass: np.ndarray, tail: float, eps: float, delta: float, ks_hi: float
) -> np.ndarray:
    """The chain check's shift points (the span, every atom and its
    eps-shifts, ascending and distinct) where the gap can reach theta =
    max A - delta over every CUT_STRIDE-th span point; all of them where
    delta >= ks_hi (see above)."""
    span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
    grid = np.concatenate([span, pos, pos - eps, pos + eps])
    if not delta < ks_hi:
        return np.unique(grid)
    theta = float(_screened_gaps(pos, mass, tail, span[::CUT_STRIDE], eps)[1].max()) - delta
    cum = np.concatenate(([0.0], np.cumsum(mass)))
    allowance = _cut_allowance(eps, len(pos), abs(1.0 - tail - float(cum[-1])))
    if not (math.isfinite(theta) and theta > allowance):
        return np.unique(grid)
    # as cum is nondecreasing, fl(fl(cum[k] + tail) + allowance) >= theta
    # from k = k_lo on, and fl(fl(cum[n] - cum[k]) + allowance) >= theta up
    # to k = m - 1. _ramp_window's j1 counts the atoms <= 2 eps - c and j0
    # those <= -c, so j1 < k_lo iff 2 eps - c < pos[k_lo - 1], and j0 >= m
    # iff -c >= pos[m - 1]; edges pads pos for k = 0 and k = n + 1
    k_lo = np.searchsorted(cum + tail + allowance, theta)
    m = len(cum) - np.searchsorted((cum[-1] - cum)[::-1] + allowance, theta)
    edges = np.concatenate(([-math.inf], pos, [math.inf]))
    c = eps - grid
    g_lo = _gaussian_cut(span, eps, allowance, theta)
    g_hi = -_gaussian_cut(-span[::-1], eps, allowance, theta)  # normal_cdf(eps - t)
    cut_left = (grid <= g_lo) & (2.0 * eps - c < edges[k_lo])  # j1 < k_lo
    cut_right = (grid >= g_hi) & (-c >= edges[m])  # j0 >= m
    return np.unique(grid[~(cut_left | cut_right)])


def mollifier_chain_check(dist: DriftDistribution, eps: float) -> MollifierChainCheck:
    """Numerical check that the CDF distance is controlled by the mollifier
    gaps plus 4 eps / sqrt(2 pi).

    The smooth sup is taken over a grid of shift points covering the
    support, including every atom and its eps-shifts. A coarse screen gives
    a lower bound theta on the sup, and bounds on each side, monotone in
    the shift, cut the grid to the points whose gap can reach it
    (_chain_grid). There E h_t(Z) is a banded sum over each point's ramp
    window (_mollifier_expectations_z), E h_t(Y) is screened with
    SCREEN_NODES nodes and a certified margin, and the 64-node rule
    (_gaussian_mollifier_expectations) runs only where the sup can sit: the
    result is the 64-node sup over the whole grid, bit for bit.
    """
    _check_quadrature_eps(eps)
    _, ks_hi = ks_distance(dist)
    pos, mass = normalized_support(dist)
    tail = float(dist.tail_mass)
    delta = _screen_margin(eps)
    ts = _chain_grid(pos, mass, tail, eps, delta, ks_hi)
    e_z, screened = _screened_gaps(pos, mass, tail, ts, eps)
    keep = _sup_candidates(screened, delta)
    e_y = _gaussian_mollifier_expectations(ts[keep], eps)
    smooth_sup = float(np.max(np.abs(e_z[keep] - e_y)))
    return MollifierChainCheck(eps, ks_hi, smooth_sup, 4.0 * eps / SQRT2PI)


# --- rate tables -------------------------------------------------------------


@dataclass(frozen=True)
class RateRow:
    r: int
    base: int
    rho: int
    lam: int
    variance: Fraction
    ks_lo: float
    ks_hi: float
    ks_times_rho_eighth: float
    smooth_gap: float
    smooth_gap_times_sqrt_rho: float


@dataclass(frozen=True)
class RateReport:
    rows: tuple[RateRow, ...]

    def column_ratio(self, column: str, min_rho: int = RATE_MIN_RHO) -> float:
        """max/min of a normalized column over rows with rho >= min_rho."""
        vals = [getattr(row, column) for row in self.rows if row.rho >= min_rho]
        if not vals:
            return float("nan")
        lo = min(vals)
        return float("inf") if lo == 0 else max(vals) / lo


def rate_report(family, base: int, cache_dir: str | None = None) -> RateReport:
    """One diagnostics row per family member: block counts, variance, CDF
    distance bracket and the cubic smooth gap, with rate-normalized columns."""
    check_base(base)
    rows = []
    for r in family:
        dist = distribution(r, base, cache_dir=cache_dir)
        rho, lam = rho_lambda(r, base)
        var = variance_exact(r, base)
        ks_lo, ks_hi = ks_distance(dist)
        gap = smooth_gap(dist, "cubic")
        rows.append(
            RateRow(
                r=r,
                base=base,
                rho=rho,
                lam=lam,
                variance=var,
                ks_lo=ks_lo,
                ks_hi=ks_hi,
                ks_times_rho_eighth=ks_hi * rho**0.125,
                smooth_gap=gap,
                smooth_gap_times_sqrt_rho=gap * math.sqrt(rho),
            )
        )
    return RateReport(tuple(rows))


def local_limit_gap(r: int, d: int, dist: DriftDistribution) -> float:
    """|atom mass at d - Gaussian density 1/(sigma sqrt(2 pi)) e^{-d^2/2
    sigma^2}|, base 2 only; dist is the law of r."""
    if dist.r != r:
        raise ValueError(f"dist is the law of r = {dist.r}, not of r = {r}")
    if dist.base != 2:
        raise InvalidBase("the local limit comparison is defined for base 2")
    if r == 0:
        raise ZeroHasNoBlocks("the local limit comparison needs r >= 1 (r = 0 has no variance)")
    var = float(variance_exact(r, 2))
    sigma = math.sqrt(var)
    gauss = math.exp(-d * d / (2.0 * var)) / (sigma * SQRT2PI)
    return abs(float(dist.mass_at(d)) - gauss)
