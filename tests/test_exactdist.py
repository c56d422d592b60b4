import json
import math
import os
import random
import tempfile
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitdrift import exactdist, mixing, oracle
from digitdrift.digits import expand, int_digit_sum, reverse_expansion
from digitdrift.errors import (
    CutoffTooLarge,
    NotSingleBlock,
    TailBoundUnavailable,
    ZeroHasNoBlocks,
)
from digitdrift.exactdist import (
    MAX_NUMERATOR_BITS,
    DriftDistribution,
    _carry_numerators,
    _from_numerators,
    atom_mass,
    cache_key,
    carry_tail_probability_bound,
    check_atom_cutoff,
    check_variance_bounds,
    default_atom_cutoff,
    distribution,
    load_cached_distribution,
    mean_interval,
    parse_rational,
    rational_str,
    save_cached_distribution,
    second_moment_interval,
    std_dev,
    tail_abs_moment_bound,
    unit_atom_mass,
    variance_exact,
    variance_range,
    variance_single_block,
    variance_trailing_max_run,
    variance_trailing_unit,
)
from digitdrift.odometer import LazyBadicSample, sample_drift
from digitdrift.oracle import tower_enclosure


def test_unit_atom_mass_values():
    assert unit_atom_mass(0, 2) == Fraction(1, 2)
    assert unit_atom_mass(1, 2) == Fraction(1, 4)
    assert unit_atom_mass(0, 10) == Fraction(9, 10)
    # closed form literally: 1/b^k - 1/b^(k+1)
    for b in (2, 3, 10, 16):
        for k in range(8):
            assert unit_atom_mass(k, b) == Fraction(1, b**k) - Fraction(1, b ** (k + 1))


def test_negative_mass_is_refused():
    law = distribution(118, 2)
    atoms = list(law.atoms)
    atoms[1] = -atoms[1]
    with pytest.raises(AssertionError):
        replace(law, atoms=tuple(atoms))
    with pytest.raises(AssertionError):
        replace(law, tail_mass=Fraction(-1, 10**40))
    assert replace(law, tail_mass=Fraction(0)).tail_mass == 0  # zero is a mass


def rebuilt(law):
    """The same law through the public constructor, from its Fractions."""
    return DriftDistribution(law.base, law.r, law.s_r, tuple(law.atoms), law.tail_mass)


def law_readings(law, level):
    """What the package's consumers read off a law, each in its own form."""
    K = len(law._numerators[0]) - 1
    ds = [law.position(k) + off for k in range(-1, K + 3) for off in (0, 1)]
    readings = {
        "mass_at": [law.mass_at(d) for d in ds],
        "mean": mean_interval(law),
        "second": second_moment_interval(law),
        "median": mixing.exact_median(law),
        "mode": mixing.exact_mode(law),
        "support": [a.tolist() for a in law.normalized_support],
    }
    if level is not None:
        readings["enclosures"] = oracle.check_enclosures(law, level)
    return readings


@given(
    st.sampled_from([*range(2, 41), 200, 3 * 2**60]),
    st.data(),
    st.booleans(),
)
@settings(max_examples=80)
def test_lazy_law_reads_as_its_constructor_twin(base, data, cached):
    # a law from the engine or the cache holds integers and builds atoms on
    # first read; every reading must equal the reading of the same law
    # built from its Fractions, and none of them may build the atoms
    r = data.draw(st.one_of(st.just(0), st.integers(0, base**12 - 1)), label="r")
    with tempfile.TemporaryDirectory() as tmp:
        if cached:
            distribution(r, base, cache_dir=tmp)  # a miss: computed and saved
            law = load_cached_distribution(
                base, r, default_atom_cutoff(r, base, exactdist.DEFAULT_TAIL_EPS), tmp
            )
        else:
            law = distribution(r, base)
    # the smallest tower that covers r, for the bases the oracle can count
    level = None if base > 200 or r == 0 else expand(r, base).digit_count()
    got = law_readings(law, level)
    assert "atoms" not in vars(law)
    nums, den = _carry_numerators(r, base, len(law._numerators[0]) - 1)
    twin = rebuilt(law)
    assert law.atoms == twin.atoms == tuple(Fraction(n, den) for n in nums)
    assert law.tail_mass == twin.tail_mass == 1 - sum(twin.atoms)
    assert law == twin and twin == law
    assert hash(law) == hash(twin)
    assert repr(law) == repr(twin)
    assert got == law_readings(twin, level)


def test_lazy_law_enclosure_violations_match_the_fraction_law():
    # a law with half its mode's mass moved to the next atom fails its
    # towers the same way read from its integers as from its Fractions
    nums, den = _carry_numerators(118, 2, 30)
    k = nums.index(max(nums))
    nums[k], nums[k + 1] = nums[k] - nums[k] // 2, nums[k + 1] + nums[k] // 2
    law = _from_numerators(118, 2, nums, den)
    violations = oracle.check_enclosures(law, 12)
    assert "atoms" not in vars(law)
    assert [v.k for v in violations] == [k, k + 1]
    assert violations == oracle.check_enclosures(rebuilt(law), 12)


def test_engine_law_with_a_negative_mass_is_refused():
    nums, den = _carry_numerators(118, 2, 30)
    with pytest.raises(AssertionError):
        _from_numerators(118, 2, [-1] + nums[1:], den)  # a negative atom
    with pytest.raises(AssertionError):
        _from_numerators(118, 2, [nums[0] + den] + nums[1:], den)  # a negative tail
    assert _from_numerators(118, 2, [0] * 31, den).tail_mass == 1  # zero is a mass


def test_atom_mass_base_cases():
    assert atom_mass(0, 2, 0) == 1
    assert atom_mass(0, 2, 1) == 0
    assert atom_mass(1, 2, 1) == Fraction(1, 2)
    assert atom_mass(1, 10, 1) == Fraction(9, 10)
    # off-lattice and above-support points carry no mass
    assert atom_mass(7, 10, 8) == 0
    assert atom_mass(7, 10, 6) == 0  # 7 - 6 = 1 not divisible by 9


def test_atom_mass_against_tower_oracle():
    # enclosure of width 3/2**21 pins the value
    mass = atom_mass(3, 2, 2)
    lo, hi = tower_enclosure(3, 2, 20, 2)
    assert lo <= mass <= hi
    assert hi - lo == Fraction(3, 2**21)


@given(
    st.integers(0, 10**6 - 1),
    st.integers(0, 40),
    st.sampled_from([2, 3, 10]),
)
@settings(max_examples=40)
def test_recursion_identity(r, k, b):
    rt, r0 = divmod(r, b)
    d = int_digit_sum(r, b) - k * (b - 1)
    lhs = atom_mass(r, b, d)
    rhs = Fraction(b - r0, b) * atom_mass(rt, b, d - r0) + Fraction(
        r0, b
    ) * atom_mass(rt + 1, b, d + b - r0)
    assert lhs == rhs


@given(st.integers(1, 10**8), st.sampled_from([2, 10]))
@settings(max_examples=25)
def test_reverse_property(r, b):
    rev = reverse_expansion(expand(r, b)).value()
    a = distribution(r, b, atoms=25)
    c = distribution(rev, b, atoms=25)
    assert a.atoms == c.atoms


@given(st.integers(1, 10**8), st.integers(1, 5), st.sampled_from([2, 10]))
@settings(max_examples=25)
def test_trailing_zero_invariance(r, m, b):
    a = distribution(r, b, atoms=20)
    c = distribution(r * b**m, b, atoms=20)
    assert a.atoms == c.atoms


def test_distribution_unit_example():
    d = distribution(1, 2, atoms=3)
    assert d.atoms == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    )
    assert d.tail_mass == Fraction(1, 16)


def test_distribution_zero():
    d = distribution(0, 7, atoms=5)
    assert d.atoms[0] == 1
    assert all(m == 0 for m in d.atoms[1:])
    assert d.tail_mass == 0


def _plain_digit_sum(n, b):
    s = 0
    while n:
        n, d = divmod(n, b)
        s += d
    return s


@pytest.mark.parametrize(
    "b, r, K",
    [
        (2, 0, 3),
        (2, 1, 0),
        (2, 1, 4),
        (2, 6, 2),
        (2, 23, 1),
        (2, 44, 6),
        (2, 181, 2),
        (3, 0, 2),
        (3, 5, 0),
        (3, 17, 3),
        (3, 26, 4),
        (3, 200, 2),
        (10, 0, 1),
        (10, 7, 0),
        (10, 9, 2),
        (10, 45, 1),
        (10, 99, 2),
        (10, 190, 1),
    ],
)
def test_engine_matches_exact_enumeration(b, r, K):
    # Over x < b**N with N = L + K + 1, a carry out of the top digit needs
    # carries at all K + 1 positions above r, so the counts of x + r making
    # k <= K carries are exactly b**N times the atoms of the b-adic law.
    L = 0
    while b**L <= r:
        L += 1
    N = L + K + 1
    s_r = _plain_digit_sum(r, b)
    counts = [0] * (N + 1)  # at most one carry per digit of x
    for x in range(b**N):
        c = (s_r + _plain_digit_sum(x, b) - _plain_digit_sum(x + r, b)) // (b - 1)
        counts[c] += 1
    exact = tuple(Fraction(counts[k], b**N) for k in range(K + 1))
    dist = distribution(r, b, atoms=K)
    assert dist.atoms == exact
    assert dist.tail_mass == Fraction(sum(counts[K + 1 :]), b**N)
    for k in range(K + 1):
        assert atom_mass(r, b, s_r - k * (b - 1)) == exact[k]


def reference_carry_numerators(r, base, K):
    """The atom numerators over b**(K+1+L) by the most-significant-first
    recursion: F is the carry-count law of x + u and G that of x + u plus a
    carry-in, for u = r // b**i, from u = 0 (G is then the law of r = 1)."""
    b = base
    F = [b ** (K + 1)] + [0] * K
    G = [(b - 1) * b ** (K - k) for k in range(K + 1)]
    digits = expand(r, b).digits
    for delta in reversed(digits):
        yG = [0] + G[:-1]
        F, G = (
            [(b - delta) * f + delta * g for f, g in zip(F, yG)],
            [(b - delta - 1) * f + (delta + 1) * g for f, g in zip(F, yG)],
        )
    return F, b ** (K + 1 + len(digits))


def list_carry_numerators(r, base, K):
    """The atom numerators over b**(K+1+L) by the least-significant-first
    walk over p and q as coefficient lists, one update per coefficient, and
    the same closed-form tail as the engine's packed walk."""
    b = base
    digits = expand(r, b).digits
    p, q = [1], [0]
    for delta in digits:
        p, q = (
            [(b - delta) * f + (b - delta - 1) * g for f, g in zip(p, q)] + [0],
            [0] + [delta * f + (delta + 1) * g for f, g in zip(p, q)],
        )
        del p[K + 1 :], q[K + 1 :]
    T, s, bj = [], 0, 1  # bj = b**j
    for f, g in zip(p, q):
        s += g * bj
        bj *= b
        T.append(bj * f + (b - 1) * s)
    T.append((b - 1) * s)
    nums, pw = [0] * (K + 1), 1  # pw = b**(K-k)
    for k in range(K, -1, -1):
        nums[k] = T[min(k, len(T) - 1)] * pw
        pw *= b
    return nums, b ** (K + 1 + len(digits))


@given(
    st.integers(2, 40000),
    st.one_of(st.just(0), st.integers(0, 10**60)),
    st.integers(-40, 40),
)
def test_carry_numerators_match_most_significant_first_recursion(base, r, offset):
    # K below, at and above the digit count L
    K = max(0, expand(r, base).digit_count() + offset)
    assert _carry_numerators(r, base, K) == reference_carry_numerators(r, base, K)


@given(
    st.integers(2, 40000),
    st.integers(0, 2**400),
    st.integers(-40, 40),
    st.integers(1, 24),
)
def test_packed_walk_matches_list_walk_across_repacks(base, r, offset, stretch_bits):
    # stretches of a few bits re-pack the slots every few digits, so every
    # width change meets live counts near their slot bound
    K = max(0, expand(r, base).digit_count() + offset)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactdist, "_STRETCH_BITS", stretch_bits)
        assert _carry_numerators(r, base, K) == list_carry_numerators(r, base, K)


@pytest.mark.parametrize(
    "r, base, K",
    [
        (0, 2, 0),
        (0, 10, 5),
        (10**40 + 7, 10, 12),  # K < L: the walk is cut at degree K
        (2**200 - 1, 2, 150),  # every digit b-1, K < L
        (123456789, 40000, 4),
        (40000**30 - 1, 40000, 31),  # every digit b-1, past one re-pack
    ],
)
def test_packed_walk_fixed_cases(r, base, K):
    assert _carry_numerators(r, base, K) == list_carry_numerators(r, base, K)


@pytest.mark.parametrize("base", [2, 10, 40000])
def test_packed_walk_at_300_digits(base):
    # past the first stretch, which ends at digit 256 in base 2, 77 in base 10
    # and 16 in base 40000
    r = random.Random(base).randrange(base**299, base**300)
    K = 300 + 5
    assert _carry_numerators(r, base, K) == list_carry_numerators(r, base, K)


def test_far_atom_is_the_geometric_tail():
    # past the digit count L = 3 of r = 5 each atom is 1/b of the one before
    start = time.perf_counter()
    mass = atom_mass(5, 2, -20000)  # carry count q = s(5) + 20000
    elapsed = time.perf_counter() - start
    nums, den = reference_carry_numerators(5, 2, 3)
    assert mass == Fraction(nums[3], den * 2 ** (20002 - 3))
    assert elapsed < 2  # O(q) multiplications, no power of b per atom


def test_atom_cutoff_bound():
    # K+1 numerators below b**(K+1+L): in base 2 with L = 0, (K+1)**2 bits
    assert MAX_NUMERATOR_BITS == 2**32
    check_atom_cutoff(2**16 - 1, 0, 2)
    with pytest.raises(CutoffTooLarge):
        check_atom_cutoff(2**16, 0, 2)
    with pytest.raises(CutoffTooLarge):
        check_atom_cutoff(2**16 - 1, 1, 2)
    check_atom_cutoff(20002, 3, 2)  # the geometric-tail atom above
    check_atom_cutoff(3, 5000, 10)  # a 5000-digit r at --atoms 4


def test_cutoff_past_the_bound_is_refused_before_the_walk():
    start = time.perf_counter()
    with pytest.raises(CutoffTooLarge, match="atom cutoff 100000000 in base 10"):
        distribution(1, 10, atoms=10**8)
    with pytest.raises(CutoffTooLarge):
        atom_mass(5, 2, -(10**8))
    assert time.perf_counter() - start < 2


def test_distribution_mass_conservation_and_positivity():
    rng = random.Random(7)
    for _ in range(20):
        b = rng.choice([2, 3, 10])
        r = rng.randrange(1, 10**9)
        d = distribution(r, b, atoms=default_atom_cutoff(r, b, Fraction(1, 10**12)))
        assert sum(d.atoms) + d.tail_mass == 1
        assert all(m > 0 for m in d.atoms)
        # derived tail decay: tail(K) <= (1/b)**(K - digitcount)
        L = len(expand(r, b).digits)
        K = len(d.atoms) - 1
        assert d.tail_mass <= Fraction(1, b ** (K - L))


def reference_atom_cutoff(r, base, tail_eps):
    """The cutoff as one Fraction division per lattice step past the digit count."""
    L = len(expand(r, base).digits)
    extra = 0
    bound = Fraction(1, base)  # tail after K = L + j is <= b**-(j+1)
    while bound > tail_eps:
        bound /= base
        extra += 1
    return L + extra


@given(
    st.integers(2, 40000),
    st.integers(0, 10**60),
    st.fractions(min_value=Fraction(1, 10**40), max_value=2),
)
def test_default_atom_cutoff_matches_fraction_loop(base, r, tail_eps):
    assert default_atom_cutoff(r, base, tail_eps) == reference_atom_cutoff(r, base, tail_eps)


@pytest.mark.parametrize(
    "r, base, tail_eps, K",
    [(0, 10, Fraction(1, 10**30), 29), (118, 2, Fraction(1, 2), 7), (118, 2, Fraction(1, 4), 8),
     (118, 2, Fraction(1, 5), 9), (5, 3, Fraction(2, 9), 3), (5, 3, Fraction(1, 3), 2)],
)
def test_default_atom_cutoff_at_exact_powers(r, base, tail_eps, K):
    # a tail bound b**-(j+1) equal to tail_eps is enough
    assert default_atom_cutoff(r, base, tail_eps) == K == reference_atom_cutoff(r, base, tail_eps)


@pytest.mark.parametrize("tail_eps", (Fraction(0), Fraction(-1, 10)))
def test_nonpositive_tail_eps_is_refused(tail_eps):
    # no cutoff K gives a tail of at most 0; the search once ran forever
    with pytest.raises(ValueError):
        default_atom_cutoff(5, 2, tail_eps)


def test_carry_tail_probability_bound_shape():
    assert carry_tail_probability_bound(3, 5, 2) == 1
    assert carry_tail_probability_bound(8, 5, 2) == Fraction(1, 8)


def test_variance_examples():
    assert variance_exact(1, 2) == 2
    assert variance_exact(3, 2) == 3
    assert variance_exact(7, 10) == 28
    assert variance_exact(0, 10) == 0


def test_variance_single_block_closed_forms():
    assert variance_single_block("digit", 4, 10) == 28
    assert variance_single_block("max_run", 1, 2) == 2
    assert variance_single_block("max_run", 3, 10) == Fraction(999, 50)
    with pytest.raises(NotSingleBlock):
        variance_single_block("digit", 0, 10)
    with pytest.raises(NotSingleBlock):
        variance_single_block("digit", 10, 10)
    with pytest.raises(NotSingleBlock):
        variance_single_block("wat", 1, 10)


def test_variance_single_block_matches_exact():
    for b in (2, 3, 10, 16):
        for v in range(1, b):
            assert variance_single_block("digit", v, b) == variance_exact(v, b)
        for m in range(1, 9):
            assert variance_single_block("max_run", m, b) == variance_exact(
                b**m - 1, b
            )


def test_variance_trailing_max_run_examples():
    assert variance_trailing_max_run(0, 2, 2) == 3  # r = 3
    assert variance_trailing_max_run(1, 1, 10) == Fraction(131, 5)  # r = 19
    assert variance_trailing_max_run(0, 1, 10) == 18  # r = 9
    assert variance_trailing_max_run(1, 1, 10) == variance_exact(19, 10)


def test_variance_trailing_unit_examples():
    assert variance_trailing_unit(0, 1, 2) == 2  # r = 1
    # r = 5 in base 2: the closed form must agree with the recursion
    assert variance_trailing_unit(1, 2, 2) == variance_exact(5, 2) == Fraction(7, 2)
    assert variance_trailing_unit(1, 1, 10) == variance_exact(11, 10)


def test_trailing_forms_match_exact_on_grid():
    for b in (2, 3, 10):
        for rhat in range(0, 30):
            for m in range(1, 5):
                assert variance_trailing_max_run(rhat, m, b) == variance_exact(
                    b**m * rhat + b**m - 1, b
                )
                assert variance_trailing_unit(rhat, m, b) == variance_exact(
                    b**m * rhat + 1, b
                )


@given(st.integers(1, 10**18), st.sampled_from([2, 3, 10]))
@settings(max_examples=60)
def test_variance_recursion_identity(r, b):
    rt, r0 = divmod(r, b)
    assert variance_exact(r, b) == Fraction(b - r0, b) * variance_exact(
        rt, b
    ) + Fraction(r0, b) * variance_exact(rt + 1, b) + r0 * (b - r0)


@given(st.integers(1, 10**12), st.sampled_from([2, 10]))
@settings(max_examples=40)
def test_variance_increment_bound(r, b):
    assert abs(variance_exact(r + 1, b) - variance_exact(r, b)) <= b


def test_variance_range_matches_exact():
    for b in (2, 10):
        sieve = variance_range(300, b)
        for r in (0, 1, 2, 17, 99, 255, 300):
            assert sieve[r] == variance_exact(r, b)


def test_check_variance_bounds_examples():
    rep = check_variance_bounds(1, 2)
    assert rep.variance == 2
    assert rep.rho == 1
    assert (rep.lower_bound, rep.upper_bound) == (Fraction(1, 2), Fraction(8))
    assert rep.all_bounds_hold

    rep3 = check_variance_bounds(3, 2)
    assert rep3.variance == 3
    assert (rep3.lambda_lower, rep3.lambda_upper) == (Fraction(1, 2), Fraction(4))
    assert rep3.all_bounds_hold

    with pytest.raises(ZeroHasNoBlocks):
        check_variance_bounds(0, 2)


def test_check_variance_bounds_random_200_digits():
    rng = random.Random(11)
    for _ in range(5):
        digits = [rng.randrange(1, 10)] + [rng.randrange(10) for _ in range(199)]
        r = int("".join(map(str, digits)))
        assert check_variance_bounds(r, 10).all_bounds_hold


def test_mean_interval_examples():
    d0 = distribution(0, 2, atoms=3)
    assert mean_interval(d0) == (0, 0)

    d1 = distribution(1, 2, atoms=30)
    lo, hi = mean_interval(d1)
    assert lo <= 0 <= hi
    assert hi - lo < Fraction(1, 10**6)

    d7 = distribution(7, 10, atoms=40)
    lo, hi = mean_interval(d7)
    assert lo <= 0 <= hi


@given(
    st.sampled_from([2, 3, 10, 200]),
    st.integers(0, 10**30),
    st.integers(0, 30),
)
def test_moment_intervals_match_fraction_sums(base, r, extra):
    d = distribution(r, base, atoms=expand(r, base).digit_count() + extra)
    t1, t2 = tail_abs_moment_bound(d, 1), tail_abs_moment_bound(d, 2)
    center = sum(Fraction(x) * m for x, m in d.items())
    partial = sum(Fraction(x) ** 2 * m for x, m in d.items())
    assert mean_interval(d) == (center - t1, center + t1)
    assert second_moment_interval(d) == (partial, partial + t2)
    # a law whose atoms are not over a power of b sums the same way
    odd = replace(d, atoms=tuple(m * Fraction(6, 7) for m in d.atoms))
    center = sum(Fraction(x) * m for x, m in odd.items())
    assert mean_interval(odd) == (center - t1, center + t1)


def test_second_moment_interval_brackets_variance():
    rng = random.Random(3)
    for _ in range(10):
        b = rng.choice([2, 10])
        r = rng.randrange(1, 10**7)
        d = distribution(r, b)
        lo, hi = second_moment_interval(d)
        assert lo <= variance_exact(r, b) <= hi


@pytest.mark.parametrize("r,b,K", [(0, 2, 0), (1, 2, 3), (118, 2, 9), (7, 10, 1), (405, 200, 4)])
def test_tail_abs_moment_bound_is_the_series_limit(r, b, K):
    # the closed form is the limit of sum_{k>K} |d_k|**p * b**(L-k), from above
    d = distribution(r, b, atoms=K)
    L = len(expand(r, b).digits)
    for p in range(4):
        bound = tail_abs_moment_bound(d, p)
        if r == 0:
            assert bound == 0
            continue
        partial = sum(
            Fraction(abs(d.position(k)) ** p * b**L, b**k) for k in range(K + 1, K + 200)
        )
        assert 0 < bound - partial < Fraction(1, 10**30)


def reference_tail_abs_moment_bound(dist, power):
    """The tail bound as Fraction arithmetic over the closed forms of
    sum_{j>=0} j**i * y**j, y = 1/b, times the geometric carry bound."""
    b = dist.base
    L = len(expand(dist.r, b).digits)
    M = len(dist.atoms)
    y = Fraction(1, b)
    c = (b - 1) * M - dist.s_r
    z = 1 - y
    sums = (1 / z, y / z**2, y * (1 + y) / z**3, y * (1 + 4 * y + y * y) / z**4)
    total = sum(
        math.comb(power, i) * c ** (power - i) * (b - 1) ** i * sums[i]
        for i in range(power + 1)
    )
    return total * carry_tail_probability_bound(M, L, b)


@given(
    st.sampled_from([2, 3, 10, 200, 2**40 + 5]),
    st.integers(1, 10**40),
    st.integers(0, 40),
)
def test_tail_abs_moment_bound_is_the_closed_form(base, r, extra):
    d = distribution(r, base, atoms=len(expand(r, base).digits) + extra)
    for p in range(4):
        assert tail_abs_moment_bound(d, p) == reference_tail_abs_moment_bound(d, p)


def test_tail_bound_requires_enough_atoms():
    d = distribution(118, 2, atoms=3)  # digit count is 7
    with pytest.raises(TailBoundUnavailable):
        tail_abs_moment_bound(d, 1)
    with pytest.raises(TailBoundUnavailable):
        mean_interval(d)


def test_std_dev_examples():
    for r, b, var in ((1, 2, 2), (3, 2, 3), (7, 10, 28)):
        s = std_dev(r, b)
        assert s * s <= var
        assert (s + Fraction(1, 2**53)) ** 2 > var


def test_rational_round_trip():
    q = Fraction(-7, 12)
    assert parse_rational(rational_str(q)) == q


def test_cache_round_trip(tmp_cache):
    d = distribution(118, 2, atoms=20)
    assert load_cached_distribution(2, 118, 20, tmp_cache) is None
    assert distribution(118, 2, atoms=20, cache_dir=tmp_cache) == d  # miss: saved
    assert load_cached_distribution(2, 118, 20, tmp_cache) == d
    assert load_cached_distribution(2, 119, 20, tmp_cache) is None
    assert distribution(118, 2, atoms=20, cache_dir=tmp_cache) == d  # hit


def test_huge_r_cache_round_trip(tmp_cache):
    # 5001 decimal digits: past the int <-> decimal str conversion limit
    r = 10**5000 + 7
    d = distribution(r, 10, atoms=3)
    assert load_cached_distribution(10, r, 3, tmp_cache) is None
    assert distribution(r, 10, atoms=3, cache_dir=tmp_cache) == d
    assert load_cached_distribution(10, r, 3, tmp_cache) == d
    assert distribution(r, 10, atoms=3, cache_dir=tmp_cache) == d


def _move_mass_below_zero(doc):
    # atom 3 becomes -1 and atom 4 takes the difference: the sum still holds
    nums = [int(n, 16) for n in doc["nums"]]
    nums[4] += nums[3] + 1
    nums[3] = -1
    doc["nums"] = [hex(n) for n in nums]
    return json.dumps(doc)


def _v1_text(doc):
    d = distribution(118, 2, atoms=20)
    return json.dumps(
        {
            "base": 2,
            "r": "118",
            "s_r": d.s_r,
            "atoms": [{"k": k, "mass": rational_str(m)} for k, m in enumerate(d.atoms)],
            "tail": rational_str(d.tail_mass),
        }
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: json.dumps(doc)[:40],
        lambda doc: "",
        lambda doc: '{"version": 2, "base": 2}',
        _v1_text,
        lambda doc: json.dumps({**doc, "version": 3}),
        _move_mass_below_zero,
        # atom 0 becomes 5/1: 5 * b**(K+1+L), K = 20, L = 7
        lambda doc: json.dumps({**doc, "nums": [hex(5 * 2**28)] + doc["nums"][1:]}),
        lambda doc: json.dumps({**doc, "r": hex(119)}),
        # valid JSON nested past the parser's recursion limit
        lambda doc: "[" * 10**5 + "]" * 10**5,
    ],
    ids=[
        "truncated",
        "empty",
        "missing-keys",
        "v1-format",
        "wrong-version",
        "negative-mass",
        "wrong-sum",
        "wrong-r",
        "nested-too-deep",
    ],
)
def test_corrupt_cache_file_is_recomputed(tmp_cache, corrupt):
    d = distribution(118, 2, atoms=20, cache_dir=tmp_cache)
    path = os.path.join(tmp_cache, cache_key(2, 118, 20))
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(corrupt(json.loads(good)))
    assert load_cached_distribution(2, 118, 20, tmp_cache) is None
    assert distribution(118, 2, atoms=20, cache_dir=tmp_cache) == d
    with open(path) as fh:
        assert fh.read() == good


def test_directory_at_cache_key_is_a_miss(tmp_cache):
    d = distribution(118, 2, atoms=20)
    path = os.path.join(tmp_cache, cache_key(2, 118, 20))
    os.makedirs(path)
    assert load_cached_distribution(2, 118, 20, tmp_cache) is None
    assert distribution(118, 2, atoms=20, cache_dir=tmp_cache) == d
    assert os.path.isdir(path)  # left alone, and nothing else written
    assert os.listdir(tmp_cache) == [cache_key(2, 118, 20)]


def test_cache_schema(tmp_cache):
    d = distribution(7, 10, atoms=5, cache_dir=tmp_cache)
    assert os.listdir(tmp_cache) == [cache_key(10, 7, 5)]
    with open(os.path.join(tmp_cache, cache_key(10, 7, 5))) as fh:
        doc = json.load(fh)
    assert set(doc) == {"version", "base", "r", "nums", "tail"}
    assert (doc["version"], doc["base"], doc["r"]) == (2, 10, "0x7")
    den = 10 ** (5 + 1 + 1)  # b**(K+1+L)
    nums = [int(n, 16) for n in doc["nums"]]
    assert doc["nums"][0] == hex(3 * 10**6)  # atom 0 is 3/10
    assert tuple(Fraction(n, den) for n in nums) == d.atoms
    assert Fraction(int(doc["tail"], 16), den) == d.tail_mass
    assert sum(nums) + int(doc["tail"], 16) == den
    path = save_cached_distribution(10, 7, nums, den, tmp_cache)
    assert path == os.path.join(tmp_cache, cache_key(10, 7, 5))
    with open(path) as fh:
        assert json.load(fh) == doc


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: distribution(-1, 2), ValueError, "r must be nonnegative"),
        (lambda: distribution(5, 2, atoms=-1), ValueError, "atom count must be nonnegative"),
        (lambda: atom_mass(-1, 2, 0), ValueError, "r must be nonnegative"),
        (lambda: variance_exact(-1, 2), ValueError, "r must be nonnegative"),
        (lambda: expand(-1, 2), ValueError, "n must be nonnegative"),
        (lambda: int_digit_sum(-1, 3), ValueError, "n must be nonnegative"),
        (lambda: unit_atom_mass(-1, 2), ValueError, "k must be nonnegative"),
        (lambda: tail_abs_moment_bound(distribution(5, 2), 4), ValueError, "power must be in 0..3"),
        (lambda: variance_trailing_unit(1, 0, 2), ValueError, "m must be >= 1"),
        (lambda: mixing.phi_half_sums(2, 0), ValueError, "n_terms must be >= 1"),
        (lambda: sample_drift(LazyBadicSample(2), -1), ValueError, "r must be nonnegative"),
        (lambda: oracle.empirical_density(1, 2, 0), ValueError, "n must be >= 1"),
        (lambda: oracle.empirical_density(-1, 2, 5), ValueError, "r must be nonnegative"),
        (lambda: oracle.tower_counts(-1, 2, 3), ValueError, "r must be nonnegative"),
        (lambda: variance_single_block("max_run", 0, 2), NotSingleBlock, "run length must be >= 1"),
        (lambda: getattr(distribution(5, 2), "nope"), AttributeError, "nope"),
    ],
    ids=[
        "distribution-negative-r",
        "distribution-negative-atoms",
        "atom-mass-negative-r",
        "variance-negative-r",
        "expand-negative",
        "digit-sum-negative",
        "unit-atom-negative-k",
        "tail-moment-power-4",
        "trailing-unit-zero-m",
        "phi-half-sums-no-terms",
        "sample-drift-negative-r",
        "density-zero-n",
        "density-negative-r",
        "tower-negative-r",
        "single-block-empty-run",
        "law-missing-attribute",
    ],
)
def test_library_input_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_digit_sum_table_of_no_entries_is_empty():
    table = oracle.digit_sum_table(0, 2)
    assert (table.shape, table.dtype) == ((0,), np.uint8)
