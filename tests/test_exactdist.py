import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitdrift.digits import expand, int_digit_sum, reverse_expansion
from digitdrift.errors import NotSingleBlock, TailBoundUnavailable, ZeroHasNoBlocks
from digitdrift.exactdist import (
    DriftDistribution,
    atom_mass,
    cache_key,
    carry_tail_probability_bound,
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
from digitdrift.oracle import tower_enclosure


def test_unit_atom_mass_values():
    assert unit_atom_mass(0, 2) == Fraction(1, 2)
    assert unit_atom_mass(1, 2) == Fraction(1, 4)
    assert unit_atom_mass(0, 10) == Fraction(9, 10)
    # closed form literally: 1/b^k - 1/b^(k+1)
    for b in (2, 3, 10, 16):
        for k in range(8):
            assert unit_atom_mass(k, b) == Fraction(1, b**k) - Fraction(1, b ** (k + 1))


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
    assert d.tail_index == 4


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


def test_second_moment_interval_brackets_variance():
    rng = random.Random(3)
    for _ in range(10):
        b = rng.choice([2, 10])
        r = rng.randrange(1, 10**7)
        d = distribution(r, b)
        lo, hi = second_moment_interval(d)
        assert lo <= variance_exact(r, b) <= hi


def test_tail_bound_requires_enough_atoms():
    d = distribution(118, 2, atoms=3)  # digit count is 7
    with pytest.raises(TailBoundUnavailable):
        tail_abs_moment_bound(d, 1)
    with pytest.raises(TailBoundUnavailable):
        mean_interval(d)


def test_std_dev_examples():
    for r, b, var in ((1, 2, 2), (3, 2, 3), (7, 10, 28)):
        s = std_dev(r, b, 53)
        assert s * s <= var
        assert (s + Fraction(1, 2**53)) ** 2 > var


def test_rational_round_trip():
    q = Fraction(-7, 12)
    assert parse_rational(rational_str(q)) == q


def test_cache_round_trip(tmp_cache):
    d = distribution(118, 2, atoms=20)
    save_cached_distribution(d, tmp_cache)
    back = load_cached_distribution(2, 118, 20, tmp_cache)
    assert back == d
    assert load_cached_distribution(2, 119, 20, tmp_cache) is None
    via = distribution(118, 2, atoms=20, cache_dir=tmp_cache)
    assert via == d


def _edited_cache_text(edit):
    import json

    doc = distribution(118, 2, atoms=20).to_json_doc()
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        '{"base": 2, "r": "118", "s_r": 5, "atoms": [{"k": 0, "ma',
        "",
        '{"base": 2}',
        _edited_cache_text(lambda doc: doc["atoms"][3].update(mass="-1/8")),
        _edited_cache_text(lambda doc: doc.update(s_r=99)),
    ],
    ids=["truncated", "empty", "missing-keys", "negative-mass", "wrong-s_r"],
)
def test_corrupt_cache_file_is_recomputed(tmp_cache, text):
    import json
    import os

    os.makedirs(tmp_cache)
    path = os.path.join(tmp_cache, cache_key(2, 118, 20))
    with open(path, "w") as fh:
        fh.write(text)
    assert load_cached_distribution(2, 118, 20, tmp_cache) is None
    d = distribution(118, 2, atoms=20, cache_dir=tmp_cache)
    assert d == distribution(118, 2, atoms=20)
    with open(path) as fh:
        assert DriftDistribution.from_json_doc(json.load(fh)) == d


def test_cache_schema(tmp_cache):
    d = distribution(7, 10, atoms=5)
    path = save_cached_distribution(d, tmp_cache)
    import json

    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"base", "r", "s_r", "atoms", "tail"}
    assert doc["r"] == "7"
    assert doc["atoms"][0] == {"k": 0, "mass": "3/10"}
    assert DriftDistribution.from_json_doc(doc) == d
