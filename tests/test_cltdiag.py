import copy
import itertools
import json
import math
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given
from hypothesis import strategies as st

from digitdrift import cltdiag
from digitdrift.cltdiag import (
    CHAIN_GRID_POINTS,
    GAUSS_EPS_MAX,
    GAUSS_NODES,
    KS_TAIL_LIMIT,
    RATE_MIN_RHO,
    _chain_grid,
    _cut_allowance,
    _gaussian_mollifier_expectations,
    _mollifier_expectations_z,
    _normal_cdf_array,
    _probe_points,
    _ramp_window,
    _screen_margin,
    _screen_ramps,
    _sup_candidates,
    gauss_legendre_error_bound,
    gaussian_mollifier_expectation,
    ks_distance,
    local_limit_gap,
    mollifier,
    mollifier_chain_check,
    mollifier_profile,
    normal_cdf,
    normal_pdf,
    normalized_support,
    rate_report,
    smooth_gap,
    third_abs_moment_normalized,
)
from digitdrift.errors import InvalidBase, InvalidEpsilon, TailTooHeavy, ZeroHasNoBlocks
from digitdrift.exactdist import (
    DriftDistribution,
    cache_key,
    distribution,
    load_cached_distribution,
    save_cached_distribution,
    tail_abs_moment_bound,
    variance_exact,
)

PINNED = Path(__file__).parent / "data" / "cltdiag_pinned.json"
CHAIN_PINNED = Path(__file__).parent / "data" / "chain_pinned.json"
CLT_WARM_PINNED = Path(__file__).parent / "data" / "clt_warm_pinned.json"


def pattern_10(m):
    r = 0
    for i in range(m):
        r |= 1 << (2 * i + 1)
    return r


def t64(eps):
    # the 64-node error bound the chain check computes once per check
    return gauss_legendre_error_bound(GAUSS_NODES, eps)


def screen_margin(eps):
    return _screen_margin(eps, t64(eps))


def simpson_gauss_mass(a, b, steps=20001):
    xs = np.linspace(a, b, steps)
    return float(scipy.integrate.simpson(np.exp(-xs * xs / 2) / math.sqrt(2 * math.pi), x=xs))


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    # independent quadrature oracle for Phi(1)
    assert abs(normal_cdf(1.0) - (0.5 + simpson_gauss_mass(0.0, 1.0))) < 1e-12
    assert abs(normal_cdf(1.0) - 0.841344746068543) < 1e-12


@given(st.floats(-8, 8))
def test_normal_cdf_symmetry(t):
    assert abs(normal_cdf(t) + normal_cdf(-t) - 1.0) < 1e-12


# signed zeros, the smallest subnormals, where erfc under- or overflows
# (|t| > 40) and far out
CDF_EDGES = [0.0, -0.0, 5e-324, -5e-324, 38.5, -38.5, 41.0, -41.0, 1e300, -1e300]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(CDF_EDGES)), max_size=40))
@example(CDF_EDGES)
def test_normal_cdf_array_is_the_scalar_cdf_bit_for_bit(ts):
    got = _normal_cdf_array(np.array(ts, dtype=np.float64))
    assert [v.hex() for v in got.tolist()] == [normal_cdf(t).hex() for t in ts]


@given(st.floats(-0.5, 1.5))
def test_mollifier_profile_rounds_python_and_numpy_scalars_alike(x):
    # smooth_gap's per-atom loop runs over Python floats, the pinned values
    # were made with np.float64 scalars
    assert mollifier_profile(x).hex() == float(mollifier_profile(np.float64(x))).hex()


def test_mollifier_profile_boundaries():
    assert mollifier_profile(0.0) == 1.0
    assert mollifier_profile(1.0) == 0.0
    assert mollifier_profile(-3.0) == 1.0
    assert mollifier_profile(2.0) == 0.0
    assert mollifier_profile(0.5) == 0.5


def test_mollifier_profile_derivatives_vanish():
    h = 1e-4
    k = 1e-3  # the third difference reads about 245 k here, and -30 on the
    # degree-5 smoothstep, whose third derivative is -60 at 0
    for x in (0.0, 1.0):
        d1 = (mollifier_profile(x + h) - mollifier_profile(x - h)) / (2 * h)
        d2 = (
            mollifier_profile(x + h) - 2 * mollifier_profile(x) + mollifier_profile(x - h)
        ) / h**2
        d3 = (
            mollifier_profile(x + 2 * k)
            - 2 * mollifier_profile(x + k)
            + 2 * mollifier_profile(x - k)
            - mollifier_profile(x - 2 * k)
        ) / (2 * k**3)
        assert abs(d1) < 1e-7
        assert abs(d2) < 1e-3
        assert abs(d3) < 1


def test_mollifier_values():
    t, eps = 0.3, 0.2
    assert mollifier(t, eps, t - eps) == 1.0
    assert mollifier(t, eps, t + eps) == 0.0
    assert mollifier(t, eps, t) == 0.5
    with pytest.raises(InvalidEpsilon):
        mollifier(0.0, 0.0, 0.0)


@given(
    st.floats(-3, 3),
    st.floats(0.01, 1.0),
    st.floats(-5, 5),
)
def test_mollifier_sandwich(t, eps, u):
    indicator = 1.0 if u <= t else 0.0
    assert mollifier(t - eps, eps, u) <= indicator + 1e-12
    assert indicator <= mollifier(t + eps, eps, u) + 1e-12


def test_ks_distance_dirac():
    d = distribution(0, 2, atoms=4)
    lo, hi = ks_distance(d)
    assert abs(lo - 0.5) < 1e-12
    assert abs(hi - 0.5) < 1e-10


def test_ks_distance_unit_base2_vs_enumeration():
    d = distribution(1, 2, atoms=60)
    lo, hi = ks_distance(d)
    # direct enumeration from the closed-form atoms
    sigma = math.sqrt(2)
    positions = [(1 - k) / sigma for k in range(60)]
    masses = [2.0 ** -(k + 1) for k in range(60)]
    best = 0.0
    cum_above = 0.0
    for pos, m in zip(positions, masses):
        f_at = 1.0 - cum_above  # F at this atom (atoms below included)
        f_left = f_at - m
        best = max(best, abs(f_at - normal_cdf(pos)), abs(f_left - normal_cdf(pos)))
        cum_above += m
    assert lo - 1e-9 <= best <= hi + 1e-9
    assert hi - lo < 1e-9


def test_ks_distance_interval_contains_grid_scan():
    for r, b in ((118, 2), (5900991, 10), (pattern_10(8), 2)):
        d = distribution(r, b)
        lo, hi = ks_distance(d)
        pos, mass = normalized_support(d)
        cum = float(d.tail_mass) + np.concatenate(([0.0], np.cumsum(mass)))
        grid = np.unique(
            np.concatenate([np.linspace(-8, 8, 100001), pos])
        )
        fr_right = cum[np.searchsorted(pos, grid, side="right")]
        fr_left = cum[np.searchsorted(pos, grid, side="left")]
        phi = 0.5 * np.vectorize(math.erfc)(-grid / math.sqrt(2))
        scan = float(
            max(np.max(np.abs(fr_right - phi)), np.max(np.abs(fr_left - phi)))
        )
        assert lo - 1e-9 <= scan <= hi + 1e-9


def test_ks_rejects_heavy_tail():
    d = distribution(5900991, 10, atoms=8)
    with pytest.raises(TailTooHeavy):
        ks_distance(d)


def test_smooth_gap_trivial_cases():
    d0 = distribution(0, 2, atoms=4)
    assert smooth_gap(d0, "sin") == 0.0  # sin(0) vs odd-symmetric normal
    assert third_abs_moment_normalized(d0) == 0.0  # a unit mass at 0
    d = distribution(118, 2)
    assert smooth_gap(d, "cubic") >= 0.0
    with pytest.raises(ValueError):
        smooth_gap(d, "quartic")


def test_smooth_gap_cubic_is_normalized_third_moment():
    d = distribution(118, 2)
    pos, mass = normalized_support(d)
    direct = abs(float(np.sum(mass * pos**3)))
    assert smooth_gap(d, "cubic") == pytest.approx(direct, abs=1e-15)


def test_gaussian_mollifier_expectation_two_ways():
    for t in (-1.0, 0.0, 0.7, 2.5):
        for eps in (0.05, 0.1, 0.2):
            via_gl = gaussian_mollifier_expectation(t, eps)
            via_quad, err = scipy.integrate.quad(
                lambda u: mollifier(t, eps, u) * normal_pdf(u),
                t - eps,
                t + eps,
                epsabs=1e-12,
            )
            via_quad += normal_cdf(t - eps)
            assert err < 1e-9
            assert abs(via_gl - via_quad) < 1e-8


@pytest.mark.parametrize("eps", [1.0, 5.0, 10.0])
def test_gaussian_mollifier_expectation_matches_quad_on_wide_ramps(eps):
    # wide ramps, up to near GAUSS_EPS_MAX: the 64 nodes still resolve phi
    for t in (-1.0, 0.0, 1.3, 2.5):
        via_quad, err = scipy.integrate.quad(
            lambda u: mollifier(t, eps, u) * normal_pdf(u),
            t - eps,
            t + eps,
            points=[0.0],
            epsabs=1e-14,
            epsrel=1e-14,
            limit=200,
        )
        via_quad += normal_cdf(t - eps)
        assert err < 1e-13
        assert abs(gaussian_mollifier_expectation(t, eps) - via_quad) < 1e-12, (t, eps)


def test_smooth_gap_mollifier_matches_quad():
    d = distribution(118, 2)
    got = smooth_gap(d, ("mollifier", 0.5, 0.1))
    pos, mass = normalized_support(d)
    e_z = float(np.sum(mass * np.array([mollifier(0.5, 0.1, u) for u in pos])))
    e_z += float(d.tail_mass)
    e_y = gaussian_mollifier_expectation(0.5, 0.1)
    assert got == pytest.approx(abs(e_z - e_y), abs=1e-14)


def test_normalized_unit_variance():
    for r, b in ((118, 2), (7, 10), (pattern_10(16), 2)):
        d = distribution(r, b)
        pos, mass = normalized_support(d)
        second = float(np.sum(mass * pos * pos))
        sigma2 = float(variance_exact(r, b))
        tail_bound = float(tail_abs_moment_bound(d, 2)) / sigma2
        assert 1.0 - tail_bound - 1e-12 <= second <= 1.0 + 1e-12


def test_mollifier_chain_holds():
    for r, b in ((118, 2), (pattern_10(4), 2), (5900991, 10)):
        d = distribution(r, b)
        for eps in (0.05, 0.1, 0.2):
            chk = mollifier_chain_check(d, eps)
            assert chk.holds, (r, eps, chk)


def test_rate_report_single_member():
    rep = rate_report([3], 2)
    row = rep.rows[0]
    assert row.rho == row.lam == 1
    assert row.variance == 3
    assert row.ks_times_rho_eighth == pytest.approx(row.ks_hi)
    assert row.smooth_gap_times_sqrt_rho == pytest.approx(row.smooth_gap)


def test_rate_report_family_shape_and_trend():
    family = [pattern_10(m) for m in (2, 4, 8, 16)]
    rep = rate_report(family, 2)
    assert [row.rho for row in rep.rows] == [4, 8, 16, 32]
    assert [row.lam for row in rep.rows] == [2, 4, 8, 16]
    ks = [row.ks_hi for row in rep.rows]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert rep.column_ratio("ks_times_rho_eighth", min_rho=8) < 10


def test_column_ratio_without_a_row_past_min_rho_is_nan():
    rep = rate_report([pattern_10(m) for m in (2, 4)], 2)
    assert max(row.rho for row in rep.rows) < RATE_MIN_RHO
    assert math.isnan(rep.column_ratio("ks_times_rho_eighth"))
    assert rep.column_ratio("ks_times_rho_eighth", min_rho=8) == 1.0


def test_local_limit_gap():
    with pytest.raises(InvalidBase):
        local_limit_gap(7, 0, dist=distribution(7, 10))
    # the law of 0 is a unit mass with zero variance: no density to compare
    with pytest.raises(ZeroHasNoBlocks):
        local_limit_gap(0, 0, dist=distribution(0, 2))
    d3 = distribution(3, 2)
    sigma = math.sqrt(3)
    expected = abs(float(d3.mass_at(0)) - 1 / (sigma * math.sqrt(2 * math.pi)))
    assert local_limit_gap(3, 0, dist=d3) == pytest.approx(expected, abs=1e-15)
    # far outside the support the gap is the gaussian density itself
    far = 50
    g = math.exp(-far * far / 6.0) / (sigma * math.sqrt(2 * math.pi))
    assert local_limit_gap(3, far, dist=d3) == pytest.approx(g, abs=1e-18)


def test_local_limit_gap_rejects_law_of_another_r():
    # the variance of 5 against the masses of 118 would read 0.0277
    with pytest.raises(ValueError):
        local_limit_gap(5, 0, dist=distribution(118, 2))


def test_third_abs_moment_tracks_normal_limit():
    # E|Z|^3 approaches E|Y|^3 = 2*sqrt(2/pi) as the block count grows
    # (m=4 sits near the limit by accident; the trend is clean from m=16)
    target = 2.0 * math.sqrt(2.0 / math.pi)
    vals = [third_abs_moment_normalized(distribution(pattern_10(m), 2)) for m in (16, 128)]
    assert abs(vals[1] - target) < abs(vals[0] - target)
    assert abs(vals[1] - target) < 0.01


def test_batched_gaussian_side_equals_scalar_twin():
    # the shift points mollifier_chain_check uses, plus 0 and far tails
    for r, b in ((118, 2), (pattern_10(16), 2), (5900991, 10)):
        pos, _ = normalized_support(distribution(r, b))
        for eps in (1e-6, 0.05, 0.5, 5.0):
            span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
            ts = np.concatenate([span, pos, pos - eps, pos + eps, [0.0, -40.0, 40.0]])
            got = _gaussian_mollifier_expectations(ts, eps)
            want = [gaussian_mollifier_expectation(t, eps) for t in ts]
            assert [float(v) for v in got] == want, (r, b, eps)


def dense_mollifier_expectations_z(pos, mass, ts, eps):
    # the (points x atoms) form the banded sum replaced: each row summed by
    # matmul from the first atom on the read-only reversed views
    arg = (eps - ts[:, None] + pos[None, :]) / (2.0 * eps)
    hz = (arg <= 0).astype(np.float64)
    ramp = (arg > 0) & (arg < 1)
    hz[ramp] = mollifier_profile(arg[ramp])
    return hz @ mass


def all_atom_mollifier_gap(d, t, eps):
    # smooth_gap's mollifier branch before the ramp window: every atom
    # through the scalar profile
    pos, mass = normalized_support(d)
    vals = np.array([mollifier_profile((eps - t + u) / (2.0 * eps)) for u in pos.tolist()])
    e_z = float(np.sum(mass * vals)) + float(d.tail_mass)
    return abs(e_z - gaussian_mollifier_expectation(t, eps))


# random laws over bases 2..40 with r < b**12, r = 0 among them
random_laws = st.integers(2, 40).flatmap(
    lambda b: st.tuples(st.one_of(st.just(0), st.integers(1, b**12 - 1)), st.just(b))
)
# a shift point at an atom, at atom +- eps or at atom +- 2 eps
atom_shifts = st.tuples(st.integers(0, 2**16), st.sampled_from([0, 1, -1, 2, -2]))


@given(random_laws, st.floats(1e-6, 5.0), st.lists(atom_shifts, max_size=8))
def test_banded_mollifier_sum_is_the_dense_sum_bit_for_bit(law, eps, shifts):
    view = normalized_support(distribution(*law))
    pos, mass = view
    # the chain check's own grid, then points at and around atoms
    span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
    ts = np.unique(np.concatenate([span, pos, pos - eps, pos + eps]))
    extra = [pos[i % len(pos)] + k * eps for i, k in shifts]
    ts = np.concatenate([ts, pos - 2 * eps, pos + 2 * eps, extra])
    got = _mollifier_expectations_z(view, ts, eps)
    want = dense_mollifier_expectations_z(pos, mass, ts, eps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (law, eps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    random_laws,
    st.floats(1e-6, 5.0),
    st.one_of(st.floats(-8.0, 8.0), atom_shifts),
)
def test_windowed_mollifier_gap_is_the_all_atom_loop(law, eps, shift):
    d = distribution(*law)
    if isinstance(shift, tuple):
        pos, _ = normalized_support(d)
        shift = float(pos[shift[0] % len(pos)] + shift[1] * eps)
    got = smooth_gap(d, ("mollifier", shift, eps))
    assert got.hex() == all_atom_mollifier_gap(d, shift, eps).hex(), (law, shift, eps)


def test_diagnostics_match_pinned_float_hex():
    # float.hex values recorded before the chain check was batched; the
    # last two laws, whose cubic gap moves with the memory layout of the
    # float view, before it became a banded sum
    for case in json.loads(PINNED.read_text()):
        r, b = case["r"], case["base"]
        d = distribution(r, b)
        assert [v.hex() for v in ks_distance(d)] == case["ks_distance"]
        for h, want in case["smooth_gap"].items():
            assert smooth_gap(d, h).hex() == want, (r, h)
        for t, eps, want in case["mollifier_gap"]:
            assert smooth_gap(d, ("mollifier", t, eps)).hex() == want, (r, t, eps)
        for eps, *want in case["chain"]:
            chk = mollifier_chain_check(d, eps)
            assert [chk.ks_hi.hex(), chk.smooth_sup.hex(), chk.slack.hex()] == want, (r, eps)
        for point, want in case.get("local_limit_gap", []):
            assert local_limit_gap(r, point, dist=d).hex() == want, (r, point)


def chain_grid(pos, eps):
    # the chain check's whole grid: the span, every atom and its eps-shifts
    span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
    return np.unique(np.concatenate([span, pos, pos - eps, pos + eps]))


def full_chain_gaps(d, eps):
    # E h_t(Z) on the whole grid, with the 64-node rule at every shift
    # point: (ts, E h_t(Y) by 64 nodes, the gap V)
    view = normalized_support(d)
    ts = chain_grid(view.pos, eps)
    e_z = _mollifier_expectations_z(view, ts, eps) + float(d.tail_mass)
    e_y = _gaussian_mollifier_expectations(ts, eps)
    return ts, e_y, np.abs(e_z - e_y)


def full_chain_sup(d, eps):
    # (ts, E h_t(Y) by 64 nodes, the sup of the gap) over the whole grid
    ts, e_y, gaps = full_chain_gaps(d, eps)
    return ts, e_y, float(np.max(gaps))


def assert_screened_sup_is_the_full_sup(d, eps):
    ts, e_y, want = full_chain_sup(d, eps)
    got = mollifier_chain_check(d, eps).smooth_sup
    assert got.hex() == want.hex(), (d.r, d.base, eps)
    # the margin bounds the gap between the screening rule and 64 nodes
    screened = _normal_cdf_array(ts - eps) + _screen_ramps(ts, eps)
    assert float(np.max(np.abs(screened - e_y))) <= screen_margin(eps), (d.r, d.base, eps)


@given(random_laws, st.floats(1e-6, GAUSS_EPS_MAX))
def test_screened_chain_sup_is_the_full_64_node_sup(law, eps):
    assert_screened_sup_is_the_full_sup(distribution(*law), eps)


def cut_bounds(d, ts, eps):
    # min(BL, BR) of the cut at every t in ts, Phi by normal_cdf, and the
    # allowance: BL = max(tail + the mass before the window end,
    # Phi(t + eps)), BR = max(the mass from the window start on, Phi(eps - t))
    pos, mass = normalized_support(d)
    tail = float(d.tail_mass)
    cum = np.concatenate(([0.0], np.cumsum(mass)))
    j0, j1 = _ramp_window(pos, eps - ts, 2.0 * eps)
    bl = np.maximum(cum[j1] + tail, _normal_cdf_array(ts + eps))
    br = np.maximum(cum[-1] - cum[j0], _normal_cdf_array(eps - ts))
    return np.minimum(bl, br), _cut_allowance(t64(eps), len(pos), abs(1.0 - tail - float(cum[-1])))


@given(random_laws, st.floats(1e-6, GAUSS_EPS_MAX))
def test_chain_gap_is_under_the_cut_bounds(law, eps):
    d = distribution(*law)
    ts, _, gaps = full_chain_gaps(d, eps)
    bound, allowance = cut_bounds(d, ts, eps)
    assert (gaps <= bound + allowance).all(), (law, eps)


# a law whose tail mass is just under KS_TAIL_LIMIT
HEAVY_TAIL = (124, 3, 15)


def test_heavy_tail_law_is_just_under_the_limit():
    tail = float(distribution(*HEAVY_TAIL).tail_mass)
    assert 0.99 * KS_TAIL_LIMIT < tail < KS_TAIL_LIMIT
    # a tail that moves the KS bracket's bits: the view's is its scratch twin
    assert_view_is_built_from_scratch(distribution(*HEAVY_TAIL))


@pytest.mark.parametrize(
    "law, eps",
    [
        ((0, 2), 0.05),
        ((0, 10), 2.0),
        ((118, 2), GAUSS_EPS_MAX),
        ((5900991, 10), GAUSS_EPS_MAX),
        ((118, 2), 1e-6),
        ((5900991, 10), 1e-6),
        (HEAVY_TAIL, 0.05),
        (HEAVY_TAIL, 0.5),
        ((5900991, 10), 0.1),
    ],
)
@pytest.mark.parametrize(
    "fault",
    [None, "infinite_margin", "nan_gap", "nan_theta"],
    ids=["False", "True", "nan_gap", "nan_theta"],
)
def test_screened_chain_sup_where_every_point_is_kept(law, eps, fault, monkeypatch):
    # r = 0 (one atom), eps at both ends of its range (at the limit the
    # 16-node margin spans the whole gap) and a tail just under
    # KS_TAIL_LIMIT, and a law the cut thins; then an infinite margin or a
    # screened gap not a number, where the screen keeps every point the cut
    # left, and a probe gap not a number (a probe point not a number makes
    # its gap one), where theta is not finite: no cut
    d = distribution(*law)
    ts, _, gaps = full_chain_gaps(d, eps)
    if fault == "infinite_margin":
        monkeypatch.setattr(cltdiag, "_screen_margin", lambda eps, t64: math.inf)
    elif fault == "nan_gap":
        monkeypatch.setattr(cltdiag, "_screen_ramps", lambda ts, eps: np.full(len(ts), math.nan))
    elif fault == "nan_theta":
        monkeypatch.setattr(cltdiag, "_probe_points", lambda view, eps: np.array([math.nan]))
    assert_screened_sup_is_the_full_sup(d, eps)
    # every point whose gap reaches the largest is kept, and only grid points
    kept = _chain_grid(normalized_support(d), float(d.tail_mass), eps, t64(eps))
    assert set(ts[gaps == gaps.max()].tolist()) <= set(kept.tolist()) <= set(ts.tolist())
    if fault == "nan_theta":
        assert np.array_equal(kept, ts)


@given(random_laws, st.floats(1e-6, GAUSS_EPS_MAX), st.integers(0, 2**32 - 1))
def test_banded_sum_on_part_of_the_grid_is_the_whole_grid_values(law, eps, seed):
    # E h_t(Z) of a point does not depend on the other points in the batch:
    # the probe points, a random subset and a slice read as on the whole
    # grid. The probes are grid points, bit for bit: theta <= max V rests
    # on it
    view = normalized_support(distribution(*law))
    ts = chain_grid(view.pos, eps)
    whole = _mollifier_expectations_z(view, ts, eps)
    probes = _probe_points(view, eps)
    at = np.searchsorted(ts, probes)
    assert np.array_equal(ts[at].view(np.int64), probes.view(np.int64)), (law, eps)
    subset = np.random.default_rng(seed).random(len(ts)) < 0.2
    for part in (at, subset, slice(len(ts) // 3, None, 7)):
        got = _mollifier_expectations_z(view, ts[part], eps)
        assert np.array_equal(got.view(np.int64), whole[part].view(np.int64)), (law, eps)
    got = _mollifier_expectations_z(view, probes, eps)
    assert np.array_equal(got.view(np.int64), whole[at].view(np.int64)), (law, eps)


# the clt-warm families: (10)^m in base 2 and (19)^m in base 10
CLT_WARM_FAMILIES = [
    *((int("10" * m, 2), 2) for m in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)),
    *((int("19" * m, 10), 10) for m in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)),
]


@pytest.mark.parametrize("law", [(118, 2), (5900991, 10), HEAVY_TAIL])
@pytest.mark.parametrize("eps", [6.0, GAUSS_EPS_MAX])
def test_screened_chain_sup_at_large_eps_on_a_cut_grid(law, eps):
    # there the 16-node margin is wider than any gap, so the screen keeps
    # every point: the cut alone thins the grid, and the sup is still the
    # 64-node sup over all of it
    d = distribution(*law)
    assert screen_margin(eps) >= ks_distance(d)[1]
    assert_screened_sup_is_the_full_sup(d, eps)
    view = normalized_support(d)
    kept = _chain_grid(view, float(d.tail_mass), eps, t64(eps))
    assert len(kept) < len(chain_grid(view.pos, eps))


@pytest.mark.parametrize("law", CLT_WARM_FAMILIES)
def test_cut_leaves_under_half_the_grid_on_the_clt_warm_families(law):
    # the chain check's speed rests on the cut: it must not fall back to
    # the whole grid on the laws the benchmark runs
    d = distribution(*law)
    view = normalized_support(d)
    kept = _chain_grid(view, float(d.tail_mass), 0.1, t64(0.1))
    assert len(kept) < len(chain_grid(view.pos, 0.1)) / 2


def test_ramp_polynomial_is_the_profile():
    # the coefficients gauss_legendre_error_bound differentiates
    for u in np.linspace(-1.0, 1.0, 17):
        got = np.polynomial.polynomial.polyval(u, cltdiag._RAMP_POLY)
        assert got == pytest.approx(mollifier_profile((1.0 + u) / 2.0), abs=1e-15), u


def test_sup_candidates_keep_twice_the_margin():
    delta = 2.0**-20
    # a point 1.5 delta below the screened max can hold the 64-node max:
    # the two 64-node values may be 1 - delta and 1 - 0.5 delta
    a = np.array([1.0, 1.0 - 1.5 * delta, 1.0 - 2.5 * delta, 0.0])
    assert _sup_candidates(a, delta).tolist() == [True, True, False, False]
    assert _sup_candidates(a, math.inf).all()
    assert _sup_candidates(np.append(a, math.nan), delta).all()


def test_chain_check_matches_pinned_float_hex():
    # float.hex recorded before the Gaussian side was screened: (10)^m in
    # base 2 for m = 2..64 and (19)^m in base 10 for m = 1..32 at three
    # widths, and criterion 9d's (10)^128 and (10)^256
    for case in json.loads(CHAIN_PINNED.read_text()):
        b = case["base"]
        d = distribution(int(case["pattern"] * case["m"], b), b)
        for eps, *want in case["chain"]:
            chk = mollifier_chain_check(d, eps)
            assert [chk.ks_hi.hex(), chk.smooth_sup.hex(), chk.slack.hex()] == want, (case, eps)


def test_clt_warm_laws_match_pinned_float_hex():
    # float.hex recorded before the diagnostics shared one float view per
    # law, for the 21 clt-warm family members: the bits the benchmark's
    # .12g digest and chain_pinned.json do not show
    for case in json.loads(CLT_WARM_PINNED.read_text()):
        b = case["base"]
        r = int(case["pattern"] * case["m"], b)
        d = distribution(r, b)
        assert [v.hex() for v in ks_distance(d)] == case["ks_distance"], case
        for h, want in case["smooth_gap"].items():
            assert smooth_gap(d, h).hex() == want, (case, h)
        for t, eps, want in case["mollifier_gap"]:
            assert smooth_gap(d, ("mollifier", t, eps)).hex() == want, (case, t, eps)
        for point, want in case.get("local_limit_gap", []):
            assert local_limit_gap(r, point, dist=d).hex() == want, (case, point)


def scratch_view(d):
    # the float view's fields, each built from the law's Fractions alone:
    # (pos, mass, cum, var, ks) as lists of floats and floats
    var = float(variance_exact(d.r, d.base))
    items = list(d.items())[::-1]
    if d.r == 0:
        pos, mass = [0.0], [1.0]
    else:
        sigma = math.sqrt(var)
        pos, mass = [x / sigma for x, _ in items], [float(m) for _, m in items]
    cum = list(itertools.accumulate(mass, initial=0.0))
    tail = float(d.tail_mass)
    cdf = [normal_cdf(x) for x in pos]
    d_atoms = max(
        max(abs(tail + c - f) for c, f in zip(cum[:-1], cdf)),
        max(abs(tail + c - f) for c, f in zip(cum[1:], cdf)),
    )
    ks = (d_atoms, max(d_atoms, tail, cdf[0]) + 1e-13)
    return pos, mass, cum, var, ks


def hexes(values):
    return [float(v).hex() for v in values]


# a law of r in base b from the engine (False) or from its Fractions (True)
view_laws = st.tuples(
    st.sampled_from([2, 3, 10, 200]).flatmap(
        lambda b: st.tuples(st.one_of(st.just(0), st.integers(1, b**12 - 1)), st.just(b))
    ),
    st.booleans(),
)


def law_of(r, b, from_fractions, atoms=None):
    d = distribution(r, b, atoms=atoms)
    return DriftDistribution(b, r, d.s_r, tuple(d.atoms), d.tail_mass) if from_fractions else d


def assert_view_is_built_from_scratch(d):
    pos, mass, cum, var, ks = scratch_view(d)
    got = ks_distance(d)
    view = normalized_support(d)
    assert hexes(view.pos) == hexes(pos) and hexes(view.mass) == hexes(mass), d
    assert hexes(view.cum) == hexes(cum) and view.var.hex() == var.hex(), d
    assert hexes(view.ks) == hexes(ks) and view.ks is got, d
    return ks


@given(view_laws, st.floats(0.05, 0.5))
def test_float_view_is_built_from_scratch_bit_for_bit(law, eps):
    (r, b), from_fractions = law
    d = law_of(r, b, from_fractions)
    ks = assert_view_is_built_from_scratch(d)
    view = normalized_support(d)
    # a fresh equal law computes the bracket anew, alone or in the chain check
    assert hexes(ks_distance(law_of(r, b, not from_fractions))) == hexes(ks), law
    assert mollifier_chain_check(law_of(r, b, from_fractions), eps).ks_hi.hex() == ks[1].hex()
    # every diagnostic leaves the shared arrays read-only
    smooth_gap(d, "cubic")
    smooth_gap(d, ("mollifier", 0.3, eps))
    mollifier_chain_check(d, eps)
    assert normalized_support(d) is view
    for arr in (view.pos, view.mass, view.cum):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    if r:
        # one atom leaves a tail of at least 1/b: refused on every call,
        # the view built or not
        heavy = law_of(r, b, from_fractions, atoms=0)
        for call in (
            lambda: ks_distance(heavy),
            lambda: smooth_gap(heavy, "sin"),
            lambda: mollifier_chain_check(heavy, eps),
        ):
            for _ in range(2):
                with pytest.raises(TailTooHeavy):
                    call()
            normalized_support(heavy)


def test_law_with_its_float_view_pickles_and_copies():
    # 11184810's cubic gap moves with the memory layout of the positions:
    # a copy builds its own view, so it reads the same bits
    d = distribution(11184810, 2)
    ks, cubic = ks_distance(d), smooth_gap(d, "cubic")
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert twin == d and "normalized_support" not in vars(twin)
        assert hexes(ks_distance(twin)) == hexes(ks)
        assert smooth_gap(twin, "cubic").hex() == cubic.hex()
    view = pickle.loads(pickle.dumps(normalized_support(d)))
    assert view.ks is None and not view.cum.flags.writeable
    assert hexes(view.cum) == hexes(normalized_support(d).cum)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_or_nonpositive_eps_is_rejected(eps):
    d = distribution(118, 2)
    with pytest.raises(InvalidEpsilon):
        gaussian_mollifier_expectation(0.5, eps)
    with pytest.raises(InvalidEpsilon):
        mollifier(0.5, eps, 0.0)
    with pytest.raises(InvalidEpsilon):
        smooth_gap(d, ("mollifier", 0.5, eps))
    with pytest.raises(InvalidEpsilon):
        mollifier_chain_check(d, eps)


def test_eps_past_the_quadrature_limit_is_rejected():
    # GAUSS_EPS_MAX is where the 64-node error bound crosses 2^-40
    past = float(np.nextafter(GAUSS_EPS_MAX, math.inf))
    assert gauss_legendre_error_bound(GAUSS_NODES, GAUSS_EPS_MAX) <= 2.0**-40
    assert gauss_legendre_error_bound(GAUSS_NODES, past) > 2.0**-40
    d = distribution(118, 2)
    for eps in (past, 20.0, 1e10, 1e308):
        with pytest.raises(InvalidEpsilon, match="GAUSS_EPS_MAX"):
            gaussian_mollifier_expectation(0.5, eps)
        with pytest.raises(InvalidEpsilon, match="GAUSS_EPS_MAX"):
            smooth_gap(d, ("mollifier", 0.5, eps))
        with pytest.raises(InvalidEpsilon, match="GAUSS_EPS_MAX"):
            mollifier_chain_check(d, eps)
        # no quadrature here: the limit does not apply
        assert 0.0 <= mollifier(0.5, eps, 0.0) <= 1.0
    # the shifts test_windowed_mollifier_gap_is_the_all_atom_loop once ran
    # at eps = 1e308, where the gap overflowed
    for shift in (-1e308, 1e308):
        with pytest.raises(InvalidEpsilon):
            smooth_gap(d, ("mollifier", shift, 1e308))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_shift_is_rejected(t):
    with pytest.raises(ValueError):
        gaussian_mollifier_expectation(t, 0.1)
    with pytest.raises(ValueError):
        smooth_gap(distribution(118, 2), ("mollifier", t, 0.1))


def test_normalized_support_is_built_once_and_read_only():
    for r in (0, 118):
        d = distribution(r, 2)
        pos, mass = normalized_support(d)
        again = normalized_support(d)
        assert again[0] is pos and again[1] is mass
        for arr in (pos, mass):
            with pytest.raises(ValueError):
                arr[0] = 1.0


# the families the clt-warm benchmark reads: member = pattern repeated m times
CLT_WARM_FAMILIES = {
    2: ("10", (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)),
    10: ("19", (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)),
}


def test_normalized_support_is_the_per_atom_float_view(tmp_cache):
    laws = []
    for base, (pattern, reps) in CLT_WARM_FAMILIES.items():
        for m in reps:
            r = int(pattern * m, base)
            K = len(distribution(r, base, cache_dir=tmp_cache).atoms) - 1  # saved
            laws.append(load_cached_distribution(base, r, K, tmp_cache))
    # positions past int64, and a base whose step is not 1 or 9
    laws += [distribution(5, 2**70), distribution(2**64 + 3, 2**40), distribution(7, 3)]
    for d in laws:
        sigma = math.sqrt(variance_exact(d.r, d.base))
        items = list(d.items())[::-1]
        pos, mass = normalized_support(d)
        assert [v.hex() for v in pos.tolist()] == [(x / sigma).hex() for x, _ in items], d.r
        assert [v.hex() for v in mass.tolist()] == [float(m).hex() for _, m in items], d.r


def test_normalized_support_cache_leaves_law_identity_alone(tmp_cache, tmp_path):
    d1 = distribution(118, 2, cache_dir=tmp_cache)  # miss: saved
    path = os.path.join(tmp_cache, cache_key(2, 118, len(d1.atoms) - 1))
    saved = Path(path).read_bytes()
    d2 = distribution(118, 2, cache_dir=tmp_cache)  # hit
    text = repr(d2)
    normalized_support(d1)
    assert d1 == d2 and d2 == d1
    assert hash(d1) == hash(d2)
    assert repr(d2) == text and repr(d1) == text
    # the loaded law, support built, saves back to the same bytes
    normalized_support(d2)
    den = 2 ** (len(d2.atoms) + (118).bit_length())  # b**(K+1+L)
    resaved = save_cached_distribution(2, 118, [int(m * den) for m in d2.atoms], den, str(tmp_path))
    assert Path(resaved).read_bytes() == saved
