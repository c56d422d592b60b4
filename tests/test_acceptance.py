"""End-to-end acceptance sweeps.

Each test prints one PASS/FAIL line that ends with the test's wall time
(module fixtures shared by several tests are not in it); run with
`pytest tests/test_acceptance.py -v -s` to watch progress.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from digitdrift.cltdiag import (
    RATE_MIN_RHO,
    RATE_RATIO_CAP,
    local_limit_gap,
    mollifier_chain_check,
    rate_report,
)
from digitdrift.digits import expand, reverse_expansion, rho_lambda
from digitdrift.exactdist import (
    default_atom_cutoff,
    distribution,
    second_moment_interval,
    unit_atom_mass,
    variance_exact,
    variance_range,
    variance_single_block,
)
from digitdrift.mixing import estimate_phi_grid, process_matrix
from digitdrift.odometer import drift_samples
from digitdrift.oracle import check_enclosures, tower_counts

SEED = 42


def report(criterion: str, ok: bool, detail: str = ""):
    import conftest

    tag = "PASS" if ok else "FAIL"
    wall = time.perf_counter() - conftest.TEST_STARTED
    line = f"criterion {criterion}: {tag}{' - ' + detail if detail else ''} ({wall:.2f} s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def pattern_10(m: int) -> int:
    r = 0
    for i in range(m):
        r |= 1 << (2 * i + 1)
    return r


@pytest.fixture(scope="module")
def family_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("accept_cache"))


@pytest.fixture(scope="module")
def family_rows(family_cache):
    members = [pattern_10(m) for m in (4, 8, 16, 32, 64, 128, 256)]
    return rate_report(members, 2, cache_dir=family_cache)


def test_criterion_1_closed_form_atoms():
    start = time.time()
    ok = True
    for b in (2, 3, 10, 16):
        d = distribution(1, b, atoms=10)
        ok &= d.atoms == tuple(unit_atom_mass(k, b) for k in range(11))
        ok &= d.tail_mass == Fraction(1, b**11)
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    assert report("1 (closed-form atoms)", ok, f"{elapsed:.3f}s")


def test_criterion_2_enclosure_sweep():
    violations = 0
    checked = 0
    start = time.time()
    for r in range(1, 2049):
        dist = distribution(r, 2, atoms=default_atom_cutoff(r, 2, Fraction(1, 10**12)))
        bad = check_enclosures(dist, level=24)
        violations += len(bad)
        checked += sum(1 for m in dist.atoms if m > Fraction(1, 10**9))
    base2_time = time.time() - start
    start = time.time()
    for r in range(1, 201):
        dist = distribution(r, 10, atoms=default_atom_cutoff(r, 10, Fraction(1, 10**12)))
        bad = check_enclosures(dist, level=7)
        violations += len(bad)
        checked += sum(1 for m in dist.atoms if m > Fraction(1, 10**9))
    base10_time = time.time() - start
    assert report(
        "2 (oracle enclosure sweep)",
        violations == 0,
        f"{checked} atoms, 0 expected violations, got {violations}; "
        f"b=2 {base2_time:.0f}s, b=10 {base10_time:.0f}s",
    )


def test_criterion_3_variance():
    ok_a = all(
        variance_exact(r, b) == r * (1 + b - r)
        for b in range(2, 17)
        for r in range(0, b)
    )
    ok_b = all(
        variance_exact(b**m - 1, b) == 2 * b - Fraction(2, b ** (m - 1))
        and variance_single_block("max_run", m, b) == variance_exact(b**m - 1, b)
        for b in range(2, 17)
        for m in range(1, 21)
    )
    rnd = random.Random(SEED)
    ok_c = True
    for i in range(10**5):
        b = (2, 3, 10)[i % 3]
        r = rnd.randrange(1, 10**18)
        rt, r0 = divmod(r, b)
        lhs = variance_exact(r, b)
        rhs = (
            Fraction(b - r0, b) * variance_exact(rt, b)
            + Fraction(r0, b) * variance_exact(rt + 1, b)
            + r0 * (b - r0)
        )
        if lhs != rhs:
            ok_c = False
            break
    ok_d = True
    for _ in range(10**3):
        b = rnd.choice((2, 10))
        r = rnd.randrange(1, 10**12)
        d = distribution(r, b)
        lo, hi = second_moment_interval(d)
        if not lo <= variance_exact(r, b) <= hi:
            ok_d = False
            break
    assert report(
        "3 (variance closed forms + recursion + atom moments)",
        ok_a and ok_b and ok_c and ok_d,
        f"a={ok_a} b={ok_b} c={ok_c} d={ok_d}",
    )


def test_criterion_4_bound_sandwich():
    violations = 0
    for b in (2,):
        sieve = variance_range(10**5, b)
        for r in range(1, 10**5 + 1):
            rho, lam = rho_lambda(r, b)
            v = sieve[r]
            if not (
                Fraction(b, 4) * rho <= v <= 2 * b * b * rho
                and Fraction(b, 4) * lam <= v <= b * b * lam
            ):
                violations += 1
    rnd = random.Random(SEED)
    for b in (2, 10):
        for _ in range(500):
            digits = [rnd.randrange(1, b)] + [rnd.randrange(b) for _ in range(49)]
            r = 0
            for d in digits:
                r = r * b + d
            rho, lam = rho_lambda(r, b)
            v = variance_exact(r, b)
            if not (
                Fraction(b, 4) * rho <= v <= 2 * b * b * rho
                and Fraction(b, 4) * lam <= v <= b * b * lam
            ):
                violations += 1
    assert report("4 (variance bound sandwich)", violations == 0, f"{violations} violations")


def test_criterion_5_increment_bound():
    violations = 0
    for b in (2, 10):
        sieve = variance_range(10**5 + 1, b)
        for r in range(1, 10**5 + 1):
            if abs(sieve[r + 1] - sieve[r]) > b:
                violations += 1
    assert report("5 (increment bound)", violations == 0, f"{violations} violations")


def test_criterion_6_reverse_property():
    bad = 0
    for r in range(1, 10**4 + 1):
        rev = reverse_expansion(expand(r, 2)).value()
        if distribution(r, 2, atoms=40).atoms != distribution(rev, 2, atoms=40).atoms:
            bad += 1
    rnd = random.Random(SEED)
    for _ in range(10**3):
        digits = [rnd.randrange(1, 10)] + [rnd.randrange(10) for _ in range(29)]
        r = 0
        for d in digits:
            r = r * 10 + d
        rev = reverse_expansion(expand(r, 10)).value()
        if distribution(r, 10, atoms=40).atoms != distribution(rev, 10, atoms=40).atoms:
            bad += 1
    assert report("6 (reverse property)", bad == 0, f"{bad} mismatches")


def test_criterion_7_monte_carlo_concordance():
    n = 10**6
    all_ok = True
    details = []
    for r, b in ((7, 10), (118, 2), (5900991, 10)):
        dist = distribution(r, b)
        delta, carries = drift_samples(r, b, n, SEED)
        ident = bool(np.all(delta == dist.s_r - carries * (b - 1)))
        X = process_matrix(r, b, n, SEED)
        decomp = bool(np.array_equal(X.sum(axis=1), delta))
        counts = np.bincount(carries, minlength=len(dist.atoms))
        freq_ok = True
        worst = 0.0
        for k, mass in enumerate(dist.atoms):
            m = float(mass)
            if not 0 < m < 1:
                continue
            tol = 4 * math.sqrt(m * (1 - m) / n)
            dev = abs(counts[k] / n - m)
            worst = max(worst, dev / tol if tol else 0.0)
            if dev > tol:
                freq_ok = False
        # drift values beyond the computed atoms would also break concordance
        freq_ok &= int(counts[len(dist.atoms):].sum()) == 0
        all_ok &= ident and decomp and freq_ok
        details.append(f"r={r}: ident={ident} decomp={decomp} freq={freq_ok} worst_z/4={worst:.2f}")
    assert report("7 (Monte Carlo concordance)", all_ok, "; ".join(details))


def test_criterion_8_phi_mixing_bound():
    r = pattern_10(16)
    n = 10**6
    X = process_matrix(r, 2, n, SEED)
    violations = [
        (est.k, est.p, est.estimate, est.ci, est.bound)
        for est in estimate_phi_grid(r, 2, range(3, 11), (1, 4), X)
        if est.violated
    ]
    assert report(
        "8 (mixing bound, (10)^16, k=3..10, p=1,4, N=1e6)",
        not violations,
        f"{len(violations)} violations {violations if violations else ''}",
    )


def test_criterion_9a_ks_strictly_decreasing(family_rows):
    ks = [row.ks_hi for row in family_rows.rows]
    ok = all(a > b for a, b in zip(ks, ks[1:]))
    assert report("9a (ks strictly decreasing in m)", ok, f"ks={[f'{v:.4f}' for v in ks]}")


def test_criterion_9b_ks_rate_ratio(family_rows):
    ratio = family_rows.column_ratio("ks_times_rho_eighth", min_rho=RATE_MIN_RHO)
    assert report(
        "9b (ks * rho^(1/8) max/min < 10 over m >= 8)", ratio < RATE_RATIO_CAP, f"ratio={ratio:.2f}"
    )


def test_criterion_9c_cubic_rate_ratio(family_rows):
    # |E Z^3| * sqrt(rho) flatness over m >= 8. The third moment of the
    # unnormalized law converges to a constant on this family, so the
    # normalized gap decays like rho^(-1) and this flatness ratio grows
    # ~ rho^(1/2): expected to fail. The companion test below pins the
    # verified actual behaviour.
    ratio = family_rows.column_ratio("smooth_gap_times_sqrt_rho", min_rho=RATE_MIN_RHO)
    assert report(
        "9c (|E Z^3| * sqrt(rho) max/min < 10 over m >= 8)",
        ratio < RATE_RATIO_CAP,
        f"ratio={ratio:.2f} (gap decays ~1/rho on this family, not 1/sqrt(rho))",
    )


def test_criterion_9c_cubic_gap_actual_decay(family_rows):
    # What does hold, comfortably: the normalized cubic gap column is
    # bounded above (decreasing), i.e. the O(1/sqrt(rho)) budget is met.
    col = [row.smooth_gap_times_sqrt_rho for row in family_rows.rows]
    ok = all(a > b for a, b in zip(col, col[1:])) and col[0] < 2.0
    assert report(
        "9c' (cubic gap meets the 1/sqrt(rho) budget; column decreasing)",
        ok,
        f"col={[f'{v:.4f}' for v in col]}",
    )


def test_criterion_9d_mollifier_chain(family_rows, family_cache):
    ok = True
    worst = None
    for row in family_rows.rows:
        dist = distribution(row.r, 2, cache_dir=family_cache)
        for eps in (0.05, 0.1, 0.2):
            chk = mollifier_chain_check(dist, eps)
            margin = chk.smooth_sup + chk.slack - chk.ks_hi
            if worst is None or margin < worst:
                worst = margin
            ok &= chk.holds
    assert report("9d (mollifier chain inequality)", ok, f"min margin={worst:.4f}")


def test_criterion_10_local_limit(family_cache):
    norms = {0: [], 1: [], -1: []}
    for m in (32, 64, 128, 256):
        r = pattern_10(m)
        dist = distribution(r, 2, cache_dir=family_cache)
        rho = 2 * m
        sigma = math.sqrt(variance_exact(r, 2))
        scale = rho / math.log(rho) ** 4
        for slot, d in ((0, 0), (1, math.ceil(sigma)), (-1, -math.ceil(sigma))):
            norms[slot].append(local_limit_gap(r, d, dist=dist) * scale)
    ok = True
    details = []
    for slot, vals in norms.items():
        ratio = max(vals) / min(vals)
        ok &= ratio < 20
        details.append(f"d_slot={slot}: ratio={ratio:.1f}")
    assert report("10 (local limit rate, per probe point)", ok, "; ".join(details))


def test_criterion_11_tail_bound_validation():
    rnd = random.Random(SEED)
    violations = 0
    for b, level, r_cap in ((2, 23, 1024), (10, 6, 999)):
        for _ in range(500):
            r = rnd.randrange(1, r_cap + 1)
            L = len(expand(r, b).digits)
            K = L + 10
            counts, _, total = tower_counts(r, b, level)
            tail_count = int(counts[K + 1 :].sum())
            # counted tail fraction is a lower bound on the true tail mass;
            # the bound allows the interval slack r/total on top of b^-10
            if Fraction(tail_count, total) > Fraction(1, b**10):
                violations += 1
    assert report("11 (derived tail decay validated by towers)", violations == 0, f"{violations} violations")
