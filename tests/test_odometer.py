import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from digitdrift.errors import (
    DigitDriftError,
    Int64Overflow,
    PropagationCapExceeded,
    TooManySamples,
)
from digitdrift.odometer import (
    MAX_CELLS,
    MAX_SAMPLES,
    DriftSample,
    LazyBadicSample,
    carry_counts,
    drift_from_digits,
    drift_samples,
    sample_digit_matrix,
    sample_drift,
)
from digitdrift import odometer, rng
from digitdrift.digits import carry_count, expand, int_digit_sum


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


def test_sample_digits_never_change():
    s = LazyBadicSample(10, seed=1, index=5)
    first = [s.digit(i) for i in range(20)]
    again = [s.digit(i) for i in range(20)]
    assert first == again
    twin = LazyBadicSample(10, seed=1, index=5)
    assert [twin.digit(i) for i in range(20)] == first


def test_scalar_digits_match_vector_block():
    # 3 * 2**62 rejects 1/4 of draws, powers of two take the word's low
    # bits; position lists may be unordered, sparse or repeat a position
    for base in (2, 10, 16, 257, 2**62, 3 * 2**62):
        for positions in (range(15), [7], [12, 3, 40], [5, 0, 5, 1]):
            for first_index in (0, 1000):
                X = rng.digit_block(rng.sample_keys(99, 40, first_index), base, positions)
                assert X.shape == (40, len(positions))
                assert X.dtype == np.min_scalar_type(base - 1)
                for i in range(40):
                    for c, j in enumerate(positions):
                        assert X[i, c] == rng.digit_at(99, first_index + i, j, base)


def realized_digits(r, base, seed, index):
    """The digits sample_drift realizes on the lazy sample, lowest first."""
    s = LazyBadicSample(base, seed=seed, index=index)
    sample_drift(s, r)
    return s._digits


def test_digit_matrix_matches_scalar_reference_with_widening():
    # r = 3**6 - 1 carries out of its 6 digits for every x but 0, so rows
    # widen column by column while the next digit is 2. Row i holds the
    # digits the lazy sample realizes (at least max(L, 1)), then zeros
    cases = [(3**6 - 1, 3), (0, 2), (5900991, 10), (int("10" * 16, 2), 2), (200 * 257**2 + 5, 257)]
    for r, base in cases:
        L = max(len(expand(r, base).digits), 1)
        for first_index in (0, 1000):
            X = sample_digit_matrix(r, base, 300, 11, first_index)
            assert X.shape[1] >= L
            for i in range(300):
                got = realized_digits(r, base, 11, first_index + i)
                got += [rng.digit_at(11, first_index + i, j, base) for j in range(len(got), L)]
                assert X[i].tolist() == got + [0] * (X.shape[1] - len(got)), (r, base, i)
    assert sample_digit_matrix(3**6 - 1, 3, 300, 11).shape[1] > 6 + 3


def test_digit_matrix_widening_draws_only_carrying_rows(monkeypatch):
    # each column past r's digits is drawn for exactly the rows whose carry
    # reaches it, and the loop stops when none is left
    r, base, n, seed = 3**6 - 1, 3, 2000, 5
    L = len(expand(r, base).digits)
    calls = []
    real = rng.digit_block

    def spy(keys, base, positions):
        calls.append((keys.copy(), list(positions)))
        return real(keys, base, positions)

    monkeypatch.setattr(rng, "digit_block", spy)
    X = sample_digit_matrix(r, base, n, seed)
    keys = rng.sample_keys(seed, n)
    assert calls[0][1] == list(range(L)) and np.array_equal(calls[0][0], keys)
    reach = [i for i in range(n) if len(realized_digits(r, base, seed, i)) > L]
    assert len(calls) == X.shape[1] - L + 1
    for j, (got, positions) in enumerate(calls[1:], L):
        assert positions == [j]
        assert np.array_equal(got, keys[reach])
        reach = [i for i in reach if X[i, j] == base - 1]
    assert reach == []


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


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the priming lifts glibc's mmap threshold"
)
def test_sample_digit_matrix_primes_the_heap():
    # in a fresh process, the second batch of cli-sampling's simulate size
    # reuses the heap's pages; unprimed, every batch faulted in about 480
    # fresh pages (ru_minflt counts the faults that read no disk)
    script = (
        "import resource\n"
        "from digitdrift.odometer import sample_digit_matrix\n"
        "sample_digit_matrix(5900991, 10, 50000, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "sample_digit_matrix(5900991, 10, 50000, 2)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert int(proc.stdout) < 100


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


CAP = 5  # PROPAGATION_CAP while a cap test runs


def carry_run_digits(r, base, run):
    """Digits of x, lowest first, such that x + r carries out of r's L
    digits and on through `run` digits b - 1, then stops at digit L + run
    (a 0): x = b**(L + run) - r."""
    L = len(expand(r, base).digits)
    low = expand(base**L - r, base).digits
    return list(low) + [0] * (L - len(low)) + [base - 1] * run + [0]


def test_sample_drift_cap(monkeypatch):
    # a carry may read CAP digits past r: the last one may stop it, and a
    # carry still running after it is refused
    monkeypatch.setattr(odometer, "PROPAGATION_CAP", CAP)
    for r, base in [(1, 2), (118, 2), (5900991, 10), (5, 3 * 2**60)]:
        L = len(expand(r, base).digits)
        x = base ** (L + CAP - 1) - r
        out = sample_drift(FixedSample(base, carry_run_digits(r, base, CAP - 1)), r)
        delta = int_digit_sum(x + r, base) - int_digit_sum(x, base)
        assert out == DriftSample(delta, carry_count(x, r, base), L + CAP)
        with pytest.raises(PropagationCapExceeded):
            sample_drift(FixedSample(base, carry_run_digits(r, base, CAP)), r)


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


def scripted_digit_block(rows):
    """A stand-in for rng.digit_block that serves sample i the digits
    rows[i] (zeros past their end), in digit_block's dtype and layout. It
    finds each key's sample in the keys of seed 0, so it serves any subset
    of the samples."""
    sample_of = {int(k): i for i, k in enumerate(rng.sample_keys(0, len(rows)))}

    def digit_block(keys, base, positions):
        out = [
            [row[j] if j < len(row) else 0 for j in positions]
            for row in (rows[sample_of[int(k)]] for k in keys)
        ]
        dtype = np.min_scalar_type(base - 1)
        return np.asfortranarray(np.array(out, dtype=dtype).reshape(len(keys), len(positions)))

    return digit_block


def test_digit_matrix_propagation_cap(monkeypatch):
    # as test_sample_drift_cap, for the batch: a row whose carry stops at
    # the CAP-th digit past r widens the matrix to L + CAP columns, and one
    # still carrying after it is refused
    monkeypatch.setattr(odometer, "PROPAGATION_CAP", CAP)
    for r, base in [(1, 2), (118, 2), (5900991, 10), (12345, 200)]:
        L = len(expand(r, base).digits)
        at_cap = carry_run_digits(r, base, CAP - 1)
        monkeypatch.setattr(rng, "digit_block", scripted_digit_block([[0], at_cap]))
        X = sample_digit_matrix(r, base, 2, 0)
        assert X.shape == (2, L + CAP)
        assert X[1].tolist() == at_cap
        x = base ** (L + CAP - 1) - r
        delta, carries = drift_from_digits(X, r, base)
        assert carries.tolist() == [0, carry_count(x, r, base)]
        s_r = int_digit_sum(r, base)
        assert delta.tolist() == [s_r, int_digit_sum(x + r, base) - int_digit_sum(x, base)]
        rows = [[0], carry_run_digits(r, base, CAP)]
        monkeypatch.setattr(rng, "digit_block", scripted_digit_block(rows))
        with pytest.raises(PropagationCapExceeded):
            sample_digit_matrix(r, base, 2, 0)


def test_carry_counts_against_integers():
    base, m, n = 3, 6, 500
    Xt = rng.digit_block(rng.sample_keys(5, n), base, range(m)).T
    addends = (0, 1, 200, base**m - 1)  # the last one carries out of most rows
    counts, carry_out = carry_counts(Xt, addends, base)
    for i in range(n):
        x = sum(int(Xt[j, i]) * base**j for j in range(m))
        for a, t in enumerate(addends):
            assert counts[a, i] == carry_count(x, t, base)
        assert carry_out[i] == (x + addends[-1] >= base**m)
    assert carry_out.any()


def test_carry_counts_refuses_int64_overflow():
    base = 2**62
    Xt = np.full((3, 4), base - 1, dtype=np.uint64)
    with pytest.raises(OverflowError):
        carry_counts(Xt, (0,), base)


@pytest.mark.parametrize("r,base", [(5, 2**62 + 1), (5, 2**64), (2**124 + 5, 2**62)])
def test_sample_digit_matrix_refuses_bases_past_int64(r, base):
    with pytest.raises(Int64Overflow) as info:
        sample_digit_matrix(r, base, 10, 0)
    assert isinstance(info.value, DigitDriftError)


def test_sample_digit_matrix_refuses_samples_past_the_bound(monkeypatch):
    assert MAX_SAMPLES >= 10 * 10**6  # ten times what CI and criterion 8 draw

    def no_keys(*args):
        raise AssertionError("keys allocated for a refused batch")

    monkeypatch.setattr(rng, "sample_keys", no_keys)
    with pytest.raises(TooManySamples) as info:
        sample_digit_matrix(7, 10, MAX_SAMPLES + 1, 0)
    assert isinstance(info.value, DigitDriftError)


def test_sample_digit_matrix_refuses_cells_past_the_bound(monkeypatch):
    # criterion 8 draws 10**6 samples of a 32-bit r
    assert MAX_CELLS >= 8 * 32 * 10**6

    class KeysReached(Exception):
        pass

    def no_keys(*args):
        raise KeysReached

    monkeypatch.setattr(rng, "sample_keys", no_keys)
    r = 10**999  # 1000 digits
    n = MAX_CELLS // 1000
    assert n + 1 <= MAX_SAMPLES  # the cell bound, not the sample bound, refuses
    with pytest.raises(KeysReached):
        sample_digit_matrix(r, 10, n, 0)  # at the bound: drawn
    with pytest.raises(TooManySamples) as info:
        sample_digit_matrix(r, 10, n + 1, 0)
    assert isinstance(info.value, DigitDriftError)
    assert str(info.value) == (
        f"{n + 1} samples of 1000 digits is past the bound of {MAX_CELLS} digit cells"
    )


def test_digit_marginals_chi_square():
    # each position uniform at significance 1e-3
    n, m, base = 100000, 8, 10
    X = rng.digit_block(rng.sample_keys(2024, n), base, range(m))
    for j in range(m):
        counts = np.bincount(X[:, j], minlength=base)
        chi2 = float(((counts - n / base) ** 2 / (n / base)).sum())
        p = scipy.stats.chi2.sf(chi2, base - 1)
        assert p > 1e-3, f"position {j}: chi2={chi2} p={p}"
