import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitdrift import mixing, odometer
from digitdrift.digits import block_prefix_integers, expand
from digitdrift.errors import InsufficientSamples
from digitdrift.exactdist import distribution, unit_atom_mass, variance_exact
from digitdrift.mixing import (
    PhiHalfSums,
    block_laws,
    estimate_phi,
    exact_median,
    exact_mode,
    phi_bound,
    phi_half_sums,
    process_matrix,
    sample_process,
    wilson_radius,
)
from digitdrift.odometer import LazyBadicSample, drift_samples, sample_drift


def pattern_10(m):
    r = 0
    for i in range(m):
        r |= 1 << (2 * i + 1)
    return r


def test_sample_process_single_block():
    for idx in range(40):
        s = LazyBadicSample(2, seed=4, index=idx)
        out = sample_process(s, 7)
        assert len(out.values) == 1
        assert out.total == out.values[0] == sample_drift(s, 7).delta


def test_sample_process_decomposition_118():
    for idx in range(100):
        s = LazyBadicSample(2, seed=8, index=idx)
        out = sample_process(s, 118)
        assert len(out.values) == 2
        assert sum(out.values) == out.total == sample_drift(s, 118).delta


def test_process_matrix_row_sums_match_drift():
    r, base, n, seed = 5900991, 10, 3000, 13
    X = process_matrix(r, base, n, seed)
    delta, _ = drift_samples(r, base, n, seed)
    assert np.array_equal(X.sum(axis=1), delta)
    assert X.shape[1] == 4


def test_process_matrix_matches_scalar_process():
    r, base, n, seed = 118, 2, 200, 99
    X = process_matrix(r, base, n, seed)
    for i in range(n):
        out = sample_process(LazyBadicSample(base, seed=seed, index=i), r)
        assert tuple(X[i]) == out.values


@pytest.mark.parametrize(
    "r, base",
    [
        (118, 2),
        (5900991, 10),
        # more than 127 carries per sample: int8 carry counts must be flushed
        (int("1" * 200 + "0" + "101", 2), 2),
        # digits above 255 do not fit in uint8
        (12345 + 77 * 257**3, 257),
        (12345 + 77 * 300**3, 300),
        (12345 + 77 * 1000**3, 1000),
        (12345 + 77 * 40000**3, 40000),
    ],
)
def test_samplers_match_scalar_across_chunks(monkeypatch, r, base):
    # several sweep passes with a ragged last one
    monkeypatch.setattr(odometer, "_CHUNK", 128)
    n, seed = 2 * 128 + 37, 3
    delta, carries = drift_samples(r, base, n, seed)
    X = process_matrix(r, base, n, seed)
    for i in range(n):
        s = LazyBadicSample(base, seed=seed, index=i)
        out = sample_drift(s, r)
        assert (delta[i], carries[i]) == (out.delta, out.carries)
        assert tuple(X[i]) == sample_process(s, r).values


def test_process_empirical_variance_vs_exact():
    r, base, n = 118, 2, 400000
    X = process_matrix(r, base, n, seed=5)
    totals = X.sum(axis=1).astype(np.float64)
    var = float(variance_exact(r, base))
    # fourth-moment based standard error of the sample variance
    m4 = ((totals - totals.mean()) ** 4).mean()
    se = math.sqrt((m4 - var**2) / n)
    assert abs(totals.var() - var) < 4 * se


def test_block_laws_and_exact_stats():
    laws = block_laws(5900991, 10)
    assert [law.r for law in laws] == [5, 9, 99, 1]
    law1 = distribution(1, 2, atoms=40)
    assert exact_mode(law1) == 1
    assert exact_median(law1) == 0


@given(st.integers(1, 10**15), st.sampled_from([2, 3, 7, 10, 16, 200]))
@settings(max_examples=60)
def test_block_laws_match_prefix_differences(r, base):
    # reference: block i's value is the difference of consecutive block
    # prefix integers with its trailing zeros stripped
    prefixes = block_prefix_integers(expand(r, base))
    values = []
    for lo, hi in zip(prefixes, prefixes[1:]):
        v = hi - lo
        while v % base == 0:
            v //= base
        values.append(v)
    assert block_laws(r, base) == [distribution(v, base) for v in values]


def test_single_digit_block_histogram_matches_law():
    # one single-digit block: per-block value follows the block's own law
    r, base, n = 500, 10, 200000
    X = process_matrix(r, base, n, seed=3)
    assert X.shape[1] == 1
    law = distribution(5, 10, atoms=6)
    for k, mass in enumerate(law.atoms):
        m = float(mass)
        if m * n < 25:
            continue
        freq = float(np.mean(X[:, 0] == law.position(k)))
        assert abs(freq - m) < 4 * math.sqrt(m * (1 - m) / n)


def test_unit_increment_abs_mean_is_one():
    # E|X| for the unit increment in base 2 equals 1 exactly
    exact = sum(abs(1 - k) * unit_atom_mass(k, 2) for k in range(200))
    assert math.isclose(float(exact), 1.0, abs_tol=1e-40)


def test_phi_bound_values():
    assert phi_bound(2, 2) == 2.0
    assert phi_bound(4, 2) == 1.0
    assert math.isclose(phi_bound(6, 10), 1.62)
    with pytest.raises(ValueError):
        phi_bound(0, 2)


def test_estimate_phi_trivial_gap():
    r = pattern_10(4)
    est = estimate_phi(r, 2, k=4, p=1, X=process_matrix(r, 2, 100, seed=0))
    assert est.estimate == 0.0
    assert est.samples == 100
    assert not est.violated


def test_estimate_phi_bound_respected_small():
    r = pattern_10(8)
    X = process_matrix(r, 2, 60000, seed=1)
    for k in (3, 5):
        est = estimate_phi(r, 2, k=k, p=2, X=X)
        assert est.samples == 60000
        assert est.estimate - est.ci <= est.bound
        assert not est.violated


def test_estimate_phi_insufficient_samples():
    r = pattern_10(8)
    with pytest.raises(InsufficientSamples):
        estimate_phi(r, 2, k=3, p=1, X=process_matrix(r, 2, 30, seed=1))


def test_estimate_phi_rejects_a_matrix_of_another_lambda():
    # the rows of (10)^8 read against the blocks of (10)^6 would mix up
    # block laws and columns; the sample count is the matrix's own
    X = process_matrix(pattern_10(8), 2, 4000, seed=1)
    assert estimate_phi(pattern_10(8), 2, 3, 1, X).estimate < 0.05
    for wrong in (pattern_10(6), pattern_10(9)):
        with pytest.raises(ValueError):
            estimate_phi(wrong, 2, 3, 1, X)
    with pytest.raises(ValueError):
        estimate_phi(pattern_10(8), 2, 3, 1, X[:, 0])


def test_estimate_phi_slices_give_the_one_pass_counts(monkeypatch):
    r = pattern_10(8)
    X = process_matrix(r, 2, 5000, seed=4)
    whole = [estimate_phi(r, 2, k, p, X) for k in (3, 5) for p in (1, 2)]
    # ragged slices, the last one short
    monkeypatch.setattr(mixing, "_PAIR_ROWS", 777)
    assert [estimate_phi(r, 2, k, p, X) for k in (3, 5) for p in (1, 2)] == whole


def test_estimate_phi_memory_is_events_plus_slices(monkeypatch):
    import tracemalloc

    # float64 copies of the whole event matrices would take 8 bytes per
    # sample and event; the bool events and one slice's copies fit the bound
    monkeypatch.setattr(mixing, "_PAIR_ROWS", 1 << 12)
    r, n = pattern_10(8), 1 << 16
    X = process_matrix(r, 2, n, seed=0)
    tracemalloc.start()
    try:
        est = estimate_phi(r, 2, 3, 1, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    events = est.a_events + est.b_events
    assert peak < 3 * n * events + 16 * mixing._PAIR_ROWS * events


def test_wilson_radius_sane():
    assert wilson_radius(0, 0) == 1.0
    r = wilson_radius(500, 1000)
    assert 0.04 < r < 0.06  # z=3.29, p=0.5, n=1000 -> ~0.052


def test_phi_half_sums():
    one = phi_half_sums(2, 1)
    assert one == PhiHalfSums(1, 1.0, 1.0)
    prev = 0.0
    for n in (1, 2, 5, 10, 40):
        cur = phi_half_sums(2, n).phi_half
        assert cur >= prev
        prev = cur
    # geometric tail: the series settles well before 200 terms
    a = phi_half_sums(2, 200).phi_half
    b = phi_half_sums(2, 400).phi_half
    assert abs(a - b) < 1e-6
    assert phi_half_sums(2, 400).phi_half_bar == pytest.approx(a * a, rel=1e-6)


def test_smooth_gap_budget_helper():
    from digitdrift.mixing import smooth_gap_budget

    bar = phi_half_sums(2, 50).phi_half_bar
    rhs = smooth_gap_budget(0.1, 1.0, 3.0, h3_norm=2.0, phi_half_bar=bar)
    manual = 2.0 * (2.5 + 28 * bar) * 0.1 + 120 * 2.0 * bar * math.sqrt(3.0)
    assert rhs == pytest.approx(manual, rel=1e-12)
    assert smooth_gap_budget(0.1, 1.0, 3.0, 4.0, bar) == pytest.approx(
        2 * rhs, rel=1e-12
    )
