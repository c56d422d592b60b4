import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitdrift import oracle
from digitdrift.digits import expand, int_digit_sum
from digitdrift.errors import LevelTooSmall, TableTooLarge
from digitdrift.exactdist import atom_mass, distribution, variance_exact
from digitdrift.oracle import (
    CesaroResult,
    EnclosureViolation,
    cesaro_check,
    check_enclosures,
    digit_sum_table,
    empirical_density,
    tower_counts,
    tower_enclosure,
)


def test_digit_sum_table_matches_scalar():
    for base in (2, 3, 10, 16):
        table = digit_sum_table(3000, base)
        for n in (0, 1, 7, 100, 999, 2048, 2999):
            assert table[n] == int_digit_sum(n, base)


def test_digit_sum_table_base2_is_popcount():
    table = digit_sum_table(1 << 16, 2)
    n = np.arange(1 << 16, dtype=np.uint32)
    assert np.array_equal(table, np.bitwise_count(n).astype(np.uint8))


def test_digit_sum_table_wide_bases():
    # digit sums past 255 must not wrap; bases that fit keep uint8
    for base in (200, 256):
        limit = base**2 + 5
        table = digit_sum_table(limit, base)
        assert table.tolist() == [int_digit_sum(n, base) for n in range(limit)]
    assert digit_sum_table(1 << 16, 2).dtype == np.uint8
    assert digit_sum_table(10**5, 10).dtype == np.uint8


def test_digit_sum_table_refuses_past_2_30():
    for limit in (2**30 + 1, 2**31 + 1):
        with pytest.raises(TableTooLarge) as info:
            digit_sum_table(limit, 2)
        assert isinstance(info.value, ValueError)


def test_empirical_density_zero_r():
    assert empirical_density(0, 10, 1000) == {0: Fraction(1)}


def test_empirical_density_unit_base2_exact_half():
    # adding 1 to an even number never carries: density of drift 1 is 1/2
    dens = empirical_density(1, 2, 1 << 20)
    assert dens[1] == Fraction(1, 2)
    assert sum(dens.values()) == 1


def test_empirical_density_counting_bound():
    # counting averages never exceed r*b times the limit mass
    r, b, n = 7, 10, 10**5
    dens = empirical_density(r, b, n)
    for d, val in dens.items():
        assert val <= r * b * atom_mass(r, b, d)


def test_empirical_density_digit_sums_past_int16():
    # digit sums reach 2 * 39999, beyond what a uint8 table or an int16
    # difference holds
    r, b, n = 39999, 40000, 1000
    expected = {}
    for x in range(n):
        d = int_digit_sum(x + r, b) - int_digit_sum(x, b)
        expected[d] = expected.get(d, 0) + 1
    assert empirical_density(r, b, n) == {
        d: Fraction(c, n) for d, c in expected.items()
    }


def test_empirical_density_across_count_chunks():
    # n = 96 * 3**6 + 17: many full blocks of the split and a ragged last one
    r, b, n = 37, 3, 70001
    expected = {}
    for x in range(n):
        d = int_digit_sum(x + r, b) - int_digit_sum(x, b)
        expected[d] = expected.get(d, 0) + 1
    assert empirical_density(r, b, n) == {
        d: Fraction(c, n) for d, c in expected.items()
    }


def test_tower_enclosure_frozen_example():
    lo, hi = tower_enclosure(1, 2, 2, 1)
    assert (lo, hi) == (Fraction(1, 2), Fraction(5, 8))
    assert lo <= atom_mass(1, 2, 1) <= hi


def test_tower_enclosure_zero_r():
    counts, m, total = tower_counts(0, 10, 2)
    assert (counts.tolist(), m, total) == ([1000], 1000, 1000)
    assert tower_enclosure(0, 10, 2, 0) == (Fraction(1), Fraction(1))
    assert tower_enclosure(0, 10, 2, 3) == (Fraction(0), Fraction(0))


def test_tower_enclosure_width():
    for r, b, level in ((5, 2, 6), (118, 2, 9), (44, 10, 3)):
        lo, hi = tower_enclosure(r, b, level, int_digit_sum(r, b))
        assert hi - lo == Fraction(r, b ** (level + 1))


def test_tower_level_too_small():
    with pytest.raises(LevelTooSmall):
        tower_enclosure(100, 2, 5, 0)  # 2**6 = 64 <= 100


def test_negative_tower_levels_are_refused():
    # level -3 once counted b**-2 levels and returned a float level count
    with pytest.raises(LevelTooSmall):
        tower_counts(0, 2, -3)
    with pytest.raises(LevelTooSmall):
        tower_counts(0, 2, -1)
    with pytest.raises(LevelTooSmall):
        tower_enclosure(0, 10, -2, 0)
    with pytest.raises(LevelTooSmall):
        check_enclosures(distribution(0, 2), -3)


def test_tower_counts_total():
    counts, m, total = tower_counts(118, 2, 9)
    assert total == 2**10
    assert m == total - 118
    assert counts.sum() == m


def test_nested_enclosures():
    r, b, d = 13, 2, int_digit_sum(13, 2) - 2
    prev = None
    for level in range(5, 12):
        lo, hi = tower_enclosure(r, b, level, d)
        if prev is not None:
            plo, phi = prev
            assert lo >= plo - Fraction(r, 2**level)
            assert hi <= phi + Fraction(r, 2**level)
        prev = (lo, hi)
        assert lo <= atom_mass(r, b, d) <= hi


def test_enclosures_cover_atoms_small_sweep():
    for b, level in ((2, 13), (3, 8), (10, 4)):
        for r in (1, 2, 5, 17, 60):
            dist = distribution(r, b, atoms=12)
            assert check_enclosures(dist, level) == []


def test_check_enclosures_reports_atoms_moved_out():
    # level 6 of r = 5 in base 2: counts [32, 32, 16, 24, 12, 5, 2] over 128
    dist = distribution(5, 2, atoms=6)
    atoms = list(dist.atoms)
    atoms[2] = Fraction(1, 2)  # above [16, 21]/128
    atoms[3] = Fraction(29, 128)  # on the upper end of [24, 29]/128: holds
    atoms[4] = Fraction(1, 10**8)  # below [12, 17]/128
    atoms[5] = Fraction(1, 10**9)  # outside [5, 10]/128, but not above min_mass
    bad = replace(dist, atoms=tuple(atoms))
    assert check_enclosures(bad, 6) == [
        EnclosureViolation(5, 2, 6, 2, 0, Fraction(1, 2), Fraction(1, 8), Fraction(21, 128)),
        EnclosureViolation(
            5, 2, 6, 4, -2, Fraction(1, 10**8), Fraction(3, 32), Fraction(17, 128)
        ),
    ]
    assert check_enclosures(dist, 6) == []  # atom 1 = 1/4 sits on its lower end


def test_enclosure_sweep_tables_stay_small(monkeypatch):
    # level 24 counts 2**25 integers per r from tables of about 2**13 entries
    limits = []
    real = oracle.digit_sum_table

    def recording(limit, base):
        limits.append(limit)
        return real(limit, base)

    monkeypatch.setattr(oracle, "digit_sum_table", recording)
    for r in (1, 5, 17, 60, 118):
        assert check_enclosures(distribution(r, 2, atoms=12), 24) == []
    assert limits and max(limits) <= 2**14


def reference_carries(r, base, m):
    """Carry counts of n + r over n < m, one integer at a time, and the
    largest digit sum below m + r."""
    s_r = int_digit_sum(r, base)
    counts = Counter()
    for n in range(m):
        k, rem = divmod(int_digit_sum(n, base) + s_r - int_digit_sum(n + r, base), base - 1)
        assert rem == 0 and k >= 0
        counts[k] += 1
    return counts, max((int_digit_sum(x, base) for x in range(m + r)), default=0)


@pytest.mark.parametrize("base", (2, 3, 7, 10, 16))
def test_tower_counts_match_one_by_one_count(base):
    rnd = random.Random(base)
    level = 0
    while base ** (level + 1) <= 2**14:
        total = base ** (level + 1)
        for r in {0, 1, total - 1, rnd.randrange(total), rnd.randrange(total)}:
            counts, m, _ = tower_counts(r, base, level)
            expected, max_sum = reference_carries(r, base, m)
            assert counts.dtype == np.int64
            assert {k: int(c) for k, c in enumerate(counts) if c} == expected
            if r:
                s_r = int_digit_sum(r, base)
                assert len(counts) == (max_sum + s_r) // (base - 1) + 2
        level += 1


@pytest.mark.parametrize(
    "r, base, n",
    [(37, 3, 70001), (118, 2, 5000), (44, 10, 12345), (250, 16, 9000), (5000, 10, 3000)],
)
def test_empirical_density_at_split_edges(r, base, n):
    # B = b**h is the oracle's split point for n; the last case has an r
    # with more digits than half of n, so n < B and the split is one block
    h = max(-(-expand(n, base).digit_count() // 2), expand(r, base).digit_count())
    B = base**h
    s_r = int_digit_sum(r, base)
    for x in {B - 1, B, B + 1, n // B * B, n} - {0}:
        expected, _ = reference_carries(r, base, x)
        assert empirical_density(r, base, x) == {
            s_r - k * (base - 1): Fraction(c, x) for k, c in expected.items()
        }


def test_tower_counts_reach_level_40():
    # adding 1 to n carries once per trailing 1 bit: 2**(40-k) of the
    # 2**41 - 1 counted n have k of them
    counts, m, total = tower_counts(1, 2, 40)
    assert (m, total) == (2**41 - 1, 2**41)
    assert counts[:41].tolist() == [2 ** (40 - k) for k in range(41)]
    assert not counts[41:].any()
    assert counts.sum() == m


def test_enclosures_cover_atoms_base_200():
    assert check_enclosures(distribution(150, 200), 2) == []


def test_cesaro_identity_contains_zero():
    res = cesaro_check(29, 2, 10**5, "identity")
    assert res.exact_lo <= 0 <= res.exact_hi


def test_cesaro_square_matches_variance():
    res = cesaro_check(3, 2, 10**5, "square")
    assert res.exact_lo <= variance_exact(3, 2) <= res.exact_hi
    assert res.exact_lo <= 3 <= res.exact_hi
    assert abs(res.empirical - 3) < Fraction(1, 100)


def test_cesaro_indicator_reduces_to_density():
    r, b, n = 7, 10, 10**4
    dens = empirical_density(r, b, n)
    for d in (7, -2):
        res = cesaro_check(r, b, n, "indicator", d=d)
        assert res.empirical == dens.get(d, Fraction(0))
        assert res.exact_lo == res.exact_hi == atom_mass(r, b, d)


def test_cesaro_abs_interval():
    res = cesaro_check(7, 10, 10**5, "abs")
    assert res.exact_hi - res.exact_lo < Fraction(1, 10**20)
    assert res.distance < Fraction(1, 100)


@pytest.mark.parametrize("base", (2, 10))
def test_cesaro_zero_r(base):
    zero = CesaroResult(Fraction(0), Fraction(0), Fraction(0))
    for f in ("identity", "square", "abs"):
        assert cesaro_check(0, base, 1000, f) == zero
    one = CesaroResult(Fraction(1), Fraction(1), Fraction(1))
    assert cesaro_check(0, base, 1000, "indicator", d=0) == one
    for d in (base - 1, 1 - base, 3):
        assert cesaro_check(0, base, 1000, "indicator", d=d) == zero


def test_cesaro_check_refuses_bad_input_before_counting(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("built a law or counts for an input it refuses")

    monkeypatch.setattr(oracle, "distribution", unreachable)
    monkeypatch.setattr(oracle, "_carry_counts", unreachable)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n must be"):
            cesaro_check(3, 2, n, "identity")
    with pytest.raises(ValueError, match="unknown function"):
        cesaro_check(3, 2, 100, "cube")
    with pytest.raises(ValueError, match="needs a point"):
        cesaro_check(3, 2, 100, "indicator")


@given(st.data(), st.integers(2, 40), st.integers(0, 3000), st.integers(1, 3000))
@settings(max_examples=40)
def test_cesaro_empirical_side_matches_one_by_one_count(data, base, r, n):
    drifts = [int_digit_sum(x + r, base) - int_digit_sum(x, base) for x in range(n)]
    expected = {
        "identity": Fraction(sum(drifts), n),
        "square": Fraction(sum(d * d for d in drifts), n),
        "abs": Fraction(sum(abs(d) for d in drifts), n),
    }
    for f, emp in expected.items():
        assert cesaro_check(r, base, n, f).empirical == emp
    # on-lattice points, counted or not, and points just off the lattice
    k = data.draw(st.integers(0, 8))
    d = int_digit_sum(r, base) - k * (base - 1) + data.draw(st.sampled_from([0, 0, 1]))
    res = cesaro_check(r, base, n, "indicator", d=d)
    assert res.empirical == Fraction(drifts.count(d), n)


def test_cesaro_convergence_two_decades():
    # distance to the exact interval shrinks by 5x from N=1e4 to N=1e6
    for f in ("identity", "square"):
        d4 = cesaro_check(29, 2, 10**4, f).distance
        d6 = cesaro_check(29, 2, 10**6, f).distance
        assert d6 * 5 <= d4 or d6 == 0
