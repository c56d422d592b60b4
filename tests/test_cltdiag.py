import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given
from hypothesis import strategies as st

from digitdrift.cltdiag import (
    CHAIN_GRID_POINTS,
    MOLLIFIER_D3_SUP,
    _gaussian_mollifier_expectations,
    _mollifier_expectations_z,
    _normal_cdf_array,
    gaussian_mollifier_expectation,
    ks_distance,
    local_limit_gap,
    mollifier,
    mollifier_chain_check,
    mollifier_d3_norm,
    mollifier_profile,
    mollifier_profile_d3,
    normal_cdf,
    normal_pdf,
    normalized_support,
    rate_report,
    smooth_gap,
    third_abs_moment_normalized,
)
from digitdrift.errors import InvalidBase, InvalidEpsilon, TailTooHeavy
from digitdrift.exactdist import (
    cache_key,
    distribution,
    load_cached_distribution,
    save_cached_distribution,
    tail_abs_moment_bound,
    variance_exact,
)

PINNED = Path(__file__).parent / "data" / "cltdiag_pinned.json"


def pattern_10(m):
    r = 0
    for i in range(m):
        r |= 1 << (2 * i + 1)
    return r


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
    for x in (0.0, 1.0):
        d1 = (mollifier_profile(x + h) - mollifier_profile(x - h)) / (2 * h)
        d2 = (
            mollifier_profile(x + h) - 2 * mollifier_profile(x) + mollifier_profile(x - h)
        ) / h**2
        assert abs(d1) < 1e-7
        assert abs(d2) < 1e-3


def test_mollifier_profile_third_derivative():
    # finite differences vs the closed form, and the sup constant
    h = 1e-3
    for x in np.linspace(0.05, 0.95, 19):
        fd3 = (
            mollifier_profile(x + 2 * h)
            - 2 * mollifier_profile(x + h)
            + 2 * mollifier_profile(x - h)
            - mollifier_profile(x - 2 * h)
        ) / (2 * h**3)
        # truncation error is O(h^2 * f^(5)), with f^(5) up to ~5e4 here
        assert abs(fd3 - mollifier_profile_d3(x)) < 0.05
    grid = np.linspace(0, 1, 200001)
    sup = max(abs(mollifier_profile_d3(x)) for x in grid)
    assert abs(sup - MOLLIFIER_D3_SUP) < 1e-6
    assert abs(mollifier_profile_d3(0.5)) == MOLLIFIER_D3_SUP


def test_mollifier_values():
    t, eps = 0.3, 0.2
    assert mollifier(t, eps, t - eps) == 1.0
    assert mollifier(t, eps, t + eps) == 0.0
    assert mollifier(t, eps, t) == 0.5
    with pytest.raises(InvalidEpsilon):
        mollifier(0.0, 0.0, 0.0)
    with pytest.raises(InvalidEpsilon):
        mollifier_d3_norm(-1.0)


@given(
    st.floats(-3, 3),
    st.floats(0.01, 1.0),
    st.floats(-5, 5),
)
def test_mollifier_sandwich(t, eps, u):
    indicator = 1.0 if u <= t else 0.0
    assert mollifier(t - eps, eps, u) <= indicator + 1e-12
    assert indicator <= mollifier(t + eps, eps, u) + 1e-12


def test_mollifier_third_derivative_scaling():
    # || h''' || = || f''' || / (8 eps^3), probed at the profile midpoint
    for eps in (0.1, 0.25):
        t = 0.0
        u = t  # theta = 1/2, where |f'''| peaks
        h = 1e-3
        fd3 = (
            mollifier(t, eps, u + 2 * h)
            - 2 * mollifier(t, eps, u + h)
            + 2 * mollifier(t, eps, u - h)
            - mollifier(t, eps, u - 2 * h)
        ) / (2 * h**3)
        assert abs(abs(fd3) - mollifier_d3_norm(eps)) < 0.02 * mollifier_d3_norm(eps)


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


def test_local_limit_gap():
    with pytest.raises(InvalidBase):
        local_limit_gap(7, 0, dist=distribution(7, 10))
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
    pos, mass = normalized_support(distribution(*law))
    # the chain check's own grid, then points at and around atoms
    span = np.linspace(pos[0] - 2 * eps, pos[-1] + 2 * eps, CHAIN_GRID_POINTS)
    ts = np.unique(np.concatenate([span, pos, pos - eps, pos + eps]))
    extra = [pos[i % len(pos)] + k * eps for i, k in shifts]
    ts = np.concatenate([ts, pos - 2 * eps, pos + 2 * eps, extra])
    got = _mollifier_expectations_z(pos, mass, ts, eps)
    want = dense_mollifier_expectations_z(pos, mass, ts, eps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (law, eps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_banded_mollifier_sum_where_shifts_overflow():
    # c = eps - t or 2 eps not finite: the window is the whole support
    pos, mass = normalized_support(distribution(118, 2))
    ts = np.array([0.0, 1e308, -1e308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan])
    for eps in (1e-6, 1.0, 1e308, 1.7e308):
        got = _mollifier_expectations_z(pos, mass, ts, eps)
        want = dense_mollifier_expectations_z(pos, mass, ts, eps)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), eps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    random_laws,
    st.floats(1e-6, 5.0),
    st.one_of(st.floats(-8.0, 8.0), atom_shifts),
)
@example((118, 2), 1e308, -1e308)
@example((118, 2), 1e308, 1e308)
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


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_or_nonpositive_eps_is_rejected(eps):
    d = distribution(118, 2)
    with pytest.raises(InvalidEpsilon):
        gaussian_mollifier_expectation(0.5, eps)
    with pytest.raises(InvalidEpsilon):
        mollifier(0.5, eps, 0.0)
    with pytest.raises(InvalidEpsilon):
        mollifier_d3_norm(eps)
    with pytest.raises(InvalidEpsilon):
        smooth_gap(d, ("mollifier", 0.5, eps))
    with pytest.raises(InvalidEpsilon):
        mollifier_chain_check(d, eps)


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
