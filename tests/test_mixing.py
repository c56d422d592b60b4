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
    block_laws,
    estimate_phi_grid,
    exact_median,
    exact_mode,
    phi_bound,
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
    (est,) = estimate_phi_grid(r, 2, [4], [1], process_matrix(r, 2, 100, seed=0))
    assert est.estimate == 0.0
    assert est.samples == 100
    assert not est.violated


def test_estimate_phi_bound_respected_small():
    r = pattern_10(8)
    X = process_matrix(r, 2, 60000, seed=1)
    for est in estimate_phi_grid(r, 2, [3, 5], [2], X):
        assert est.samples == 60000
        assert est.estimate - est.ci <= est.bound
        assert not est.violated


def test_estimate_phi_insufficient_samples():
    r = pattern_10(8)
    with pytest.raises(InsufficientSamples):
        estimate_phi_grid(r, 2, [3], [1], process_matrix(r, 2, 30, seed=1))


def test_estimate_phi_rejects_a_matrix_of_another_lambda():
    # the rows of (10)^8 read against the blocks of (10)^6 would mix up
    # block laws and columns; the sample count is the matrix's own
    X = process_matrix(pattern_10(8), 2, 4000, seed=1)
    assert estimate_phi_grid(pattern_10(8), 2, [3], [1], X)[0].estimate < 0.05
    for wrong in (pattern_10(6), pattern_10(9)):
        with pytest.raises(ValueError):
            estimate_phi_grid(wrong, 2, [3], [1], X)
    with pytest.raises(ValueError):
        estimate_phi_grid(pattern_10(8), 2, [3], [1], X[:, 0])


def dense_side(X, cols, medians, modes):
    """Reference bool events of one side, one sample per column: one event
    per block and comparison, then the 16 (first, last) intersections,
    first block's event major."""
    per_block = [
        [X[:, c] >= medians[c], X[:, c] == modes[c], X[:, c] <= -1, X[:, c] == 0]
        for c in cols
    ]
    events = [ev for four in per_block for ev in four]
    if len(cols) >= 2:
        events += [a & b for a in per_block[0] for b in per_block[-1]]
    return np.array(events)


def dense_phi(r, base, k, p, X):
    """Reference estimate: bool events and an integer matrix product."""
    laws = block_laws(r, base)
    lam, n = len(laws), X.shape[0]
    bound = phi_bound(k, base)
    if p + k > lam:
        return mixing.PhiEstimate(r, base, k, p, 0.0, 0.0, bound, n, 0, 0)
    medians = [exact_median(law) for law in laws]
    modes = [exact_mode(law) for law in laws]
    A = dense_side(X, range(p), medians, modes)
    B = dense_side(X, range(p + k - 1, lam), medians, modes)
    count_a = A.sum(axis=1)
    keep = count_a >= mixing.MIN_EVENT_HITS
    A, count_a = A[keep], count_a[keep]
    count_b = B.sum(axis=1)
    count_ab = A.astype(np.int64) @ B.T.astype(np.int64)
    diffs = np.abs(count_ab / count_a[:, None] - (count_b / n)[None, :])
    ai, bi = np.unravel_index(np.argmax(diffs), diffs.shape)
    ci = wilson_radius(int(count_ab[ai, bi]), int(count_a[ai])) + wilson_radius(
        int(count_b[bi]), n
    )
    return mixing.PhiEstimate(r, base, k, p, float(diffs[ai, bi]), ci, bound, n, len(A), len(B))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [50, 63, 64, 65, 4097])
def test_estimate_phi_grid_matches_per_pair_and_dense_reference(monkeypatch, n, order):
    # sample counts around a 64-bit word, and one ragged past many words;
    # (7, 2) leaves no block past the gap, (7, 1) one
    if n < 100:
        monkeypatch.setattr(mixing, "MIN_EVENT_HITS", 5)
    r, ks, ps = pattern_10(8), [3, 5, 7], [1, 2]
    X = np.asarray(process_matrix(r, 2, n, seed=4), order=order)
    grid = estimate_phi_grid(r, 2, ks, ps, X)
    assert [(est.k, est.p) for est in grid] == [(k, p) for k in ks for p in ps]
    assert grid == [estimate_phi_grid(r, 2, [k], [p], X)[0] for k in ks for p in ps]
    assert grid == [dense_phi(r, 2, k, p, X) for k in ks for p in ps]
    assert grid[-1].estimate == 0.0 and grid[-2].b_events == 4


def test_estimate_phi_grid_refuses_what_estimate_phi_refuses():
    r = pattern_10(8)
    X = process_matrix(r, 2, 4000, seed=1)
    assert estimate_phi_grid(r, 2, [], [1], X) == []
    for ks, ps in (([3, 0], [1]), ([3], [1, 0])):
        with pytest.raises(ValueError, match="must be >= 1"):
            estimate_phi_grid(r, 2, ks, ps, X)
    for wrong, Y in ((pattern_10(6), X), (r, X[:, 0])):
        with pytest.raises(ValueError, match="shape"):
            estimate_phi_grid(wrong, 2, [3], [1], Y)
    with pytest.raises(InsufficientSamples):
        estimate_phi_grid(r, 2, [4, 3], [1], X[:30])


def test_side_events_match_per_block_loop():
    # the packed rows unpack to the reference events; the padding bits of
    # the last word are zero
    r, n = pattern_10(8), 3000
    X = process_matrix(r, 2, n, seed=2)
    laws = block_laws(r, 2)
    medians = np.array([exact_median(law) for law in laws])
    modes = np.array([exact_mode(law) for law in laws])
    table = mixing._event_table(X.T, medians, modes)
    assert table.shape == (8, 4, -(-n // 64)) and table.dtype == np.uint64
    for lo, hi in ((0, 1), (0, 3), (3, 8)):
        got = mixing._side_events(table, lo, hi)
        bits = np.unpackbits(got.view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(bits[:, :n], dense_side(X, range(lo, hi), medians, modes))
        assert not bits[:, n:].any()


def test_estimate_phi_memory_is_the_packed_events():
    import tracemalloc

    # a bool copy of both sides' events would take a byte per sample and
    # event, and float64 copies 8; one block's bool events, the packed
    # table and three packed copies of each side's rows fit the bound
    r, n, k, p = pattern_10(8), 1 << 16, 3, 2
    X = process_matrix(r, 2, n, seed=0)
    lam = X.shape[1]
    rows = (4 * p + 16) + (4 * (lam - p - k + 1) + 16)
    tracemalloc.start()
    try:
        estimate_phi_grid(r, 2, [k], [p], X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n + n // 8 * (4 * lam + 3 * rows)
    assert n * rows > 4 * n + n // 8 * (4 * lam + 3 * rows)


def test_wilson_radius_sane():
    assert wilson_radius(0, 0) == 1.0
    r = wilson_radius(500, 1000)
    assert 0.04 < r < 0.06  # z=3.29, p=0.5, n=1000 -> ~0.052
