"""Distance-to-normal diagnostics for the normalized drift laws.

The normalized law puts mass at d/sigma_r. The CDF distance against the
standard normal is bracketed exactly (up to the certified tail), smooth
gaps are computed from the atoms, and rate tables track how both scale
with the block count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import check_base, rho_lambda
from .errors import InvalidBase, InvalidEpsilon, TailTooHeavy
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
    _check_eps(eps)
    return MOLLIFIER_D3_SUP / (8.0 * eps**3)


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


def gaussian_mollifier_expectation(t: float, eps: float) -> float:
    """E mollifier(t, eps, Y) for standard normal Y, by Gauss-Legendre on
    the ramp interval plus the exact CDF below it. The scalar reference
    for _gaussian_mollifier_expectations."""
    if not math.isfinite(t):
        raise ValueError(f"shift point t must be finite, got {t}")
    _check_eps(eps)
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
        _check_eps(eps)
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


def mollifier_chain_check(dist: DriftDistribution, eps: float) -> MollifierChainCheck:
    """Numerical check that the CDF distance is controlled by the mollifier
    gaps plus 4 eps / sqrt(2 pi).

    The smooth sup is taken over a grid of shift points covering the
    support, including every atom and its eps-shifts. Both sides are
    evaluated for all shift points at once: E h_t(Z) as a banded sum over
    each point's ramp window (_mollifier_expectations_z), E h_t(Y) by
    _gaussian_mollifier_expectations.
    """
    _check_eps(eps)
    _, ks_hi = ks_distance(dist)
    pos, mass = normalized_support(dist)
    tail = float(dist.tail_mass)
    span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
    ts = np.unique(np.concatenate([span, pos, pos - eps, pos + eps]))
    e_y = _gaussian_mollifier_expectations(ts, eps)
    e_z = _mollifier_expectations_z(pos, mass, ts, eps) + tail
    smooth_sup = float(np.max(np.abs(e_z - e_y)))
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

    def column_ratio(self, column: str, min_rho: int = 16) -> float:
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
    var = float(variance_exact(r, 2))
    sigma = math.sqrt(var)
    gauss = math.exp(-d * d / (2.0 * var)) / (sigma * SQRT2PI)
    return abs(float(dist.mass_at(d)) - gauss)
