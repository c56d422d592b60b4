from fractions import Fraction

import numpy as np
import pytest

from digitdrift import oracle
from digitdrift.digits import int_digit_sum
from digitdrift.errors import LevelTooSmall
from digitdrift.exactdist import atom_mass, distribution, variance_exact
from digitdrift.oracle import (
    CesaroResult,
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
    # the count runs in fixed-size passes; n spans several with a ragged end
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


def test_enclosure_sweep_builds_one_table(monkeypatch):
    tower_counts(1, 3, 2)  # leave some other table in the one-table cache
    builds = []
    real = oracle.digit_sum_table

    def counting(limit, base):
        builds.append((limit, base))
        return real(limit, base)

    monkeypatch.setattr(oracle, "digit_sum_table", counting)
    for r in (1, 5, 17, 60, 118):
        assert check_enclosures(distribution(r, 2, atoms=12), 12) == []
    assert builds == [(2**13, 2)]


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


def test_cesaro_convergence_two_decades():
    # distance to the exact interval shrinks by 5x from N=1e4 to N=1e6
    for f in ("identity", "square"):
        d4 = cesaro_check(29, 2, 10**4, f).distance
        d6 = cesaro_check(29, 2, 10**6, f).distance
        assert d6 * 5 <= d4 or d6 == 0
