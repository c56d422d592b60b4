import numpy as np
import pytest
import scipy.stats

from digitdrift.errors import DigitDriftError, Int64Overflow, PropagationCapExceeded
from digitdrift.odometer import (
    DriftSample,
    LazyBadicSample,
    drift_samples,
    prefix_digit_sums,
    sample_digit_matrix,
    sample_drift,
)
from digitdrift import rng
from digitdrift.digits import int_digit_sum


class FixedSample:
    """Digit provider with a scripted prefix, then zeros."""

    def __init__(self, base, digits):
        self.base = base
        self._digits = list(digits)

    def digit(self, i):
        return self._digits[i] if i < len(self._digits) else 0

    def prefix_value(self, m):
        v = 0
        for i in range(m - 1, -1, -1):
            v = v * self.base + self.digit(i)
        return v


class AllMaxSample(FixedSample):
    def digit(self, i):
        return self.base - 1

    def prefix_value(self, m):
        return self.base**m - 1


def test_sample_digits_never_change():
    s = LazyBadicSample(10, seed=1, index=5)
    first = [s.digit(i) for i in range(20)]
    again = [s.digit(i) for i in range(20)]
    assert first == again
    twin = LazyBadicSample(10, seed=1, index=5)
    assert [twin.digit(i) for i in range(20)] == first


def test_scalar_digits_match_vector_block():
    # 3 * 2**62 rejects 1/4 of draws; position lists may be unordered,
    # sparse or repeat a position
    for base in (2, 10, 257, 3 * 2**62):
        for positions in (range(15), [7], [12, 3, 40], [5, 0, 5, 1]):
            for first_index in (0, 1000):
                X = rng.digit_block(rng.sample_keys(99, 40, first_index), base, positions)
                assert X.shape == (40, len(positions))
                assert X.dtype == np.min_scalar_type(base - 1)
                for i in range(40):
                    for c, j in enumerate(positions):
                        assert X[i, c] == rng.digit_at(99, first_index + i, j, base)


def test_digit_matrix_matches_scalar_reference_with_widening():
    # r = 3**6 - 1 carries out of its 6 digits for every x but 0, so rows
    # widen column by column while the next digit is 2
    r, base, n = 3**6 - 1, 3, 300
    for first_index in (0, 1000):
        X = sample_digit_matrix(r, base, n, 11, first_index)
        assert X.shape[1] > 6 + 3
        for i in range(n):
            for j in range(X.shape[1]):
                assert X[i, j] == rng.digit_at(11, first_index + i, j, base)


def test_digit_block_memory_is_output_plus_linear():
    import tracemalloc

    n = 200_000
    tracemalloc.start()
    try:
        X = rng.digit_block(rng.sample_keys(1, n), 10, range(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes + 64 * n


def test_sample_drift_zero_r():
    s = LazyBadicSample(2, seed=0, index=0)
    assert sample_drift(s, 0) == DriftSample(0, 0, 0)


def test_sample_drift_scripted_carry():
    # adding 1 to ...011: two carries, drift -1
    s = FixedSample(2, [1, 1, 0])
    out = sample_drift(s, 1)
    assert out.delta == -1
    assert out.carries == 2
    assert out.digits_consumed == 3


def test_sample_drift_identity_random():
    for idx in range(200):
        s = LazyBadicSample(10, seed=3, index=idx)
        out = sample_drift(s, 5900991)
        assert out.delta == 33 - 9 * out.carries


def test_sample_drift_cap():
    s = AllMaxSample(2, [])
    with pytest.raises(PropagationCapExceeded):
        sample_drift(s, 1, cap=50)


def test_drift_samples_match_scalar():
    r, base, seed, n = 5900991, 10, 42, 400
    delta, carries = drift_samples(r, base, n, seed)
    for i in range(n):
        out = sample_drift(LazyBadicSample(base, seed=seed, index=i), r)
        assert delta[i] == out.delta
        assert carries[i] == out.carries


def test_drift_samples_first_index_offset():
    d_all, _ = drift_samples(118, 2, 50, seed=7)
    d_tail, _ = drift_samples(118, 2, 30, seed=7, first_index=20)
    assert np.array_equal(d_all[20:], d_tail)


def test_drift_samples_carry_identity_bulk():
    delta, carries = drift_samples(118, 2, 20000, seed=0)
    assert np.all(delta == 5 - carries)


def test_empirical_mean_near_zero():
    # zero-mean law: N draws stay within 4 sigma / sqrt(N)
    n = 200000
    delta, _ = drift_samples(7, 10, n, seed=42)
    sigma = np.sqrt(28.0)
    assert abs(delta.mean()) < 4 * sigma / np.sqrt(n)


def test_digit_matrix_wide_enough():
    X = sample_digit_matrix(999, 10, 5000, seed=1)
    vals = X.astype(object)
    powers = np.array([10**j for j in range(X.shape[1])], dtype=object)
    x_vals = (vals * powers).sum(axis=1)
    assert all(int(x) + 999 < 10 ** X.shape[1] for x in x_vals)


def test_digit_matrix_propagation_cap():
    # 20 ones: every row but x = 0 carries past the digits of r
    with pytest.raises(PropagationCapExceeded):
        sample_digit_matrix(2**20 - 1, 2, 4096, 0, cap=0)


def test_prefix_digit_sums_against_integers():
    base, m, n = 3, 6, 500
    Xt = rng.digit_block(rng.sample_keys(5, n), base, range(m)).T
    addends = (0, 1, 200, base**m - 1)  # the last one carries out of most rows
    sums, carry_out = prefix_digit_sums(Xt, addends, base)
    for i in range(n):
        x = sum(int(Xt[j, i]) * base**j for j in range(m))
        for a, t in enumerate(addends):
            assert sums[a, i] == int_digit_sum((x + t) % base**m, base)
        assert carry_out[i] == (x + addends[-1] >= base**m)


def test_prefix_digit_sums_refuses_int64_overflow():
    base = 2**62
    Xt = np.full((3, 4), base - 1, dtype=np.uint64)
    with pytest.raises(OverflowError):
        prefix_digit_sums(Xt, (0,), base)


@pytest.mark.parametrize("r,base", [(5, 2**62 + 1), (5, 2**64), (2**124 + 5, 2**62)])
def test_sample_digit_matrix_refuses_bases_past_int64(r, base):
    with pytest.raises(Int64Overflow) as info:
        sample_digit_matrix(r, base, 10, 0)
    assert isinstance(info.value, DigitDriftError)


def test_digit_marginals_chi_square():
    # each position uniform at significance 1e-3
    n, m, base = 100000, 8, 10
    X = rng.digit_block(rng.sample_keys(2024, n), base, range(m))
    for j in range(m):
        counts = np.bincount(X[:, j], minlength=base)
        chi2 = float(((counts - n / base) ** 2 / (n / base)).sum())
        p = scipy.stats.chi2.sf(chi2, base - 1)
        assert p > 1e-3, f"position {j}: chi2={chi2} p={p}"
