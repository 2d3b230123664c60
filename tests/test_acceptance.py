"""Acceptance suite: ten criteria, one pass/fail line each.

Each criterion states its tolerance and runtime budget inline.  The
runtime budget covers the program's own work; the oracles below are not
charged to it.

Criteria 2, 3, 5 and 6 measure frequencies on every member up to
x = 10^7.  Their x -> oo limits (Dickman, log(1/(1-eps)), the
Poisson-Dirichlet correlation masses) are approached only at rate
O(1/log x), and at x = 10^7 the exact values still sit 0.018-0.046 away
from them, more than the tolerances of 0.005-0.03.  Every such frequency
is a ratio of integer counts, so these criteria compare the program with
the exact finite-x value instead, settled by ``tests/oracles.py`` (prime
sieving with integer threshold tests, no pdlab import): the counts must
agree to the unit, and the tolerance is applied to the difference from
the exact frequency.  Each verdict line also prints the limit and the
exact finite-x gap to it, which at x = 10^7 is

- AC2: tail(0.5) 0.7280713 vs log 2, +0.0349; the leading-entry column
  equals the largest-prime-factor sieve member by member, and the KS
  distance to Dickman equals the atom (pi(x) + 1)/x = 0.066458 that the
  primes and u = 1 put at L1 = 1;
- AC3: tail(eps) vs log(1/(1-eps)): +0.0457, +0.0360, +0.0378 for
  eps = 0.05, 0.1, 0.2;
- AC5: k = 1 box vs log 2, -0.0304; k = 2 box vs
  log(5/3) log(4/3), -0.0179;
- AC6: Thue-Morse cdf(1/2) vs rho(2), -0.0313, against -0.0349 for the
  integers; the 0.02 tolerance applies to the Thue-Morse minus integer
  difference at the same x, +0.0035.
"""

import math
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy

from pdlab import arith, cli, dickman, factor, pdprocess, sequences, stats
from pdlab.boxes import box, box_correlation_exact, box_correlation_quadrature

import oracles
import scalar
from conftest import record_verdict


@pytest.fixture(scope="module")
def primes_1e7():
    return oracles.PrimeCounts(10**7)


def _rational(v: float) -> Fraction:
    """The decimal that a float literal such as 0.15 names, as 3/20."""
    return Fraction(str(v))


def _count(est) -> int:
    """The integer count behind a frequency or a per-member mean of counts."""
    return round(est.value * est.n)


def test_ac01_dickman_closed_form():
    t0 = time.perf_counter()
    table = dickman.RhoTable()
    u = np.linspace(1.0, 2.0, 100)
    err = float(np.max(np.abs(table.rho_vec(u) - (1.0 - np.log(u)))))
    dt = time.perf_counter() - t0
    ok = err <= 1e-10 and dt < 1.0
    assert record_verdict(
        "AC1", ok, f"max |rho(u)-(1-log u)| = {err:.2e} (tol 1e-10), {dt:.2f}s (<1s)"
    )


def test_ac02_dickman_marginal_limit(primes_1e7):
    spec, x = sequences.uniform_integers(), 10**7
    t0 = time.perf_counter()
    # the leading column, for KS; tail_frequency folds the members itself
    s = stats.build_sample_set(spec, x)
    tail = stats.tail_frequency(spec, x, 0.5)
    ks = stats.ks_distance(s.top[:, 0], stats.dickman_reference_cdf())
    dt = time.perf_counter() - t0
    want = oracles.tail_count(x, Fraction(1, 2), primes_1e7)
    l1_exact = np.array_equal(s.top[:, 0], oracles.leading_entries(x, primes_1e7))
    # the Dickman cdf is continuous, the sample has mass (pi(x) + 1)/x at
    # L1 = 1 (the primes and u = 1): KS can go no lower than that atom
    atom = (primes_1e7.pi(x) + 1) / x
    limit = 1.0 - dickman.default_table().rho(2.0)  # P(L1 >= 1/2) -> 1 - rho(2) = log 2
    tail_err = abs(tail.value - want / x)
    ks_err = abs(ks - atom)
    ok = (
        _count(tail) == want
        and tail_err <= 0.005
        and l1_exact
        and ks_err <= 0.01
        and dt < 60.0
    )
    assert record_verdict(
        "AC2",
        ok,
        f"tail(0.5) = {tail.value:.7f} vs exact {want}/{x} (err {tail_err:.1e}, "
        f"tol 0.005; limit log 2 = {limit:.4f}, gap {want / x - limit:+.4f}); "
        f"L1 column equals the largest-prime-factor sieve: {l1_exact}; "
        f"KS vs Dickman = {ks:.6f} vs the atom at L1 = 1, {atom:.6f} "
        f"(err {ks_err:.1e}, tol 0.01; limit 0); {dt:.1f}s (<60s)",
    )


def test_ac03_tail_identity_small_eps(primes_1e7):
    spec, x = sequences.uniform_integers(), 10**7
    t0 = time.perf_counter()
    ests = {eps: stats.tail_frequency(spec, x, eps) for eps in (0.05, 0.1, 0.2)}
    dt = time.perf_counter() - t0
    rows = []
    worst = 0.0
    counts_equal = True
    for eps, est in ests.items():
        want = oracles.tail_count(x, _rational(eps), primes_1e7)
        counts_equal &= _count(est) == want
        worst = max(worst, abs(est.value - want / x))
        limit = math.log(1.0 / (1.0 - eps))
        rows.append(
            f"eps={eps}: {est.value:.7f} vs exact {want}/{x} "
            f"(limit {limit:.4f}, gap {want / x - limit:+.4f})"
        )
    ok = counts_equal and worst <= 0.01 and dt < 90.0
    assert record_verdict(
        "AC3",
        ok,
        "; ".join(rows)
        + f"; counts equal: {counts_equal}; worst err {worst:.1e} (tol 0.01); "
        f"{dt:.1f}s (<90s)",
    )


def _random_disjoint_instances(n: int, master_seed: int):
    rng = np.random.Generator(np.random.Philox(key=master_seed))
    out = []
    while len(out) < n:
        k = int(rng.integers(1, 4))
        hi = 0.95 if k == 1 else 0.99 / k
        cuts = np.sort(rng.uniform(0.04, hi, size=2 * k))
        if np.min(np.diff(cuts)) < 0.01:
            continue
        out.append([(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(k)])
    return out


def test_ac04_correlation_oracle_equivalence():
    t0 = time.perf_counter()
    worst_z = 0.0
    worst_quad = 0.0
    for i, ivals in enumerate(_random_disjoint_instances(20, master_seed=20260823)):
        want = box_correlation_exact(ivals)
        eta = box(*ivals)
        quad_val = box_correlation_quadrature(eta)
        worst_quad = max(worst_quad, abs(quad_val - want))
        est = pdprocess.corr_mc(eta, 10**6, seed=1000 + i, threads=4)
        z = abs(est.value - want) / est.std_error if est.std_error else 0.0
        worst_z = max(worst_z, z)
    dt = time.perf_counter() - t0
    ok = worst_z <= 3.0 and worst_quad <= 1e-6 and dt < 120.0
    assert record_verdict(
        "AC4",
        ok,
        f"20 disjoint-box instances (k<=3): worst MC |z| = {worst_z:.2f} (<=3), "
        f"worst quadrature err = {worst_quad:.2e} (tol 1e-6); {dt:.1f}s (<120s)",
    )


def test_ac05_correlation_at_desk_scale(primes_1e7):
    spec, x = sequences.uniform_integers(), 10**7
    k1 = ((0.25, 0.5),)
    k2 = ((0.15, 0.25), (0.3, 0.4))
    t0 = time.perf_counter()
    c1 = stats.empirical_corr(spec, x, box(*k1))
    c2 = stats.empirical_corr(spec, x, box(*k2))
    dt = time.perf_counter() - t0
    exact = [[_rational(v) for v in iv] for iv in k1 + k2]
    want1 = oracles.box_count(x, exact[0], primes_1e7)
    want2 = oracles.box_pair_count(x, exact[1], exact[2], primes_1e7)
    lim1 = math.log(2.0)
    lim2 = math.log(5.0 / 3.0) * math.log(4.0 / 3.0)
    err1 = abs(c1.value - want1 / x)
    err2 = abs(c2.value - want2 / x)
    counts_equal = _count(c1) == want1 and _count(c2) == want2
    ok = counts_equal and err1 <= 0.02 and err2 <= 0.03 and dt < 120.0
    assert record_verdict(
        "AC5",
        ok,
        f"k=1: {c1.value:.7f} vs exact {want1}/{x} (err {err1:.1e}, tol 0.02; "
        f"limit log 2 = {lim1:.4f}, gap {want1 / x - lim1:+.4f}); "
        f"k=2: {c2.value:.7f} vs exact {want2}/{x} (err {err2:.1e}, tol 0.03; "
        f"limit {lim2:.4f}, gap {want2 / x - lim2:+.4f}); "
        f"counts equal: {counts_equal}; {dt:.1f}s (<120s)",
    )


def test_ac06_thue_morse_joint_cdf(primes_1e7):
    x = 10**7
    t0 = time.perf_counter()
    got = stats.empirical_joint_cdf(sequences.thue_morse_zeros(), x, [0.5])
    ref = stats.empirical_joint_cdf(sequences.uniform_integers(), x, [0.5])
    dt = time.perf_counter() - t0
    n_tm = oracles.thue_morse_zero_count(x)
    want = oracles.cdf_half_count(x, primes_1e7, thue_morse=True)
    want_ref = oracles.cdf_half_count(x, primes_1e7)
    counts_equal = got.n == n_tm and _count(got) == want and _count(ref) == want_ref
    # a sequence with level of distribution 1 has the law of the integers:
    # compare the two at the same x, where they share the O(1/log x) bias
    diff = got.value - ref.value
    rho2 = dickman.default_table().rho(2.0)
    ok = counts_equal and abs(diff) <= 0.02 and dt < 90.0
    assert record_verdict(
        "AC6",
        ok,
        f"Thue-Morse cdf(1/2) = {got.value:.7f} vs exact {want}/{n_tm}; "
        f"integers {ref.value:.7f} vs exact {want_ref}/{x}; "
        f"counts equal: {counts_equal}; Thue-Morse - integers = {diff:+.4f} "
        f"(tol 0.02); limit rho(2) = {rho2:.4f}, gaps {want / n_tm - rho2:+.4f} "
        f"and {want_ref / x - rho2:+.4f}; {dt:.1f}s (<90s)",
    )


def test_ac07_level_of_distribution_trends():
    t0 = time.perf_counter()
    xs = (10**5, 10**6, 10**7)
    parts = []
    ok = True
    for spec, name in (
        (sequences.shifted_primes(1), "shifted"),
        (sequences.polynomial_values([1, 0, 1]), "X^2+1"),
    ):
        vals = [stats.lod_error_sum(spec, x, 0.4)[0] for x in xs]
        mono = vals[0] > vals[1] > vals[2]
        ok &= mono
        parts.append(f"{name}: {vals[0]:.4f} > {vals[1]:.4f} > {vals[2]:.4f} ({mono})")
    uni = sequences.uniform_integers()
    bound_ok = all(stats.lod_error_sum(uni, x, 0.4)[0] <= x ** (0.4 - 1.0) for x in xs)
    ok &= bound_ok
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    assert record_verdict(
        "AC7",
        ok,
        "; ".join(parts) + f"; uniform bound x^(c-1) holds: {bound_ok}; {dt:.1f}s (<300s)",
    )


def test_ac08_tail_guard_band():
    t0 = time.perf_counter()
    parts = []
    ok = True
    for eps in (0.1, 0.2):
        got = stats.tail_frequency(sequences.shifted_primes(1), 10**6, eps).value
        bound = 5.0 * math.log(1.0 / (1.0 - eps))
        ok &= got <= bound
        parts.append(f"eps={eps}: {got:.4f} <= {bound:.4f}")
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    assert record_verdict(
        "AC8", ok, "; ".join(parts) + f" (guard band 5x); {dt:.1f}s (<60s)"
    )


def test_ac09_root_counting_exactness():
    polys = {"X^2+1": (1, 0, 1), "X^3-2": (-2, 0, 0, 1), "X^2-X-1": (-1, -1, 1)}
    x = sympy.Symbol("x")
    discs = {
        name: int(sympy.discriminant(sympy.Poly(coeffs[::-1], x))) for name, coeffs in polys.items()
    }
    t0 = time.perf_counter()
    ok = True
    for name, coeffs in polys.items():
        h = arith.poly_root_count(coeffs, np.arange(1, 10**4 + 1))
        ok &= h.tolist() == [len(scalar.roots_mod(coeffs, d)) for d in range(1, 10**4 + 1)]
        p, k = np.meshgrid([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], np.arange(1, 6))
        off = discs[name] % p != 0
        h = arith.poly_root_count(coeffs, p[off] ** k[off])
        ok &= bool(((0 <= h) & (h <= arith.poly_degree(coeffs))).all())
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    assert record_verdict(
        "AC9",
        ok,
        f"h(d) = residue scan for all d <= 1e4, 3 polynomials; "
        f"h(p^k) <= D off the discriminant; {dt:.1f}s (<30s)",
    )


def test_ac10_property_suites(tmp_path):
    t0 = time.perf_counter()
    ok = True
    details = []

    # factorization round-trip + spectrum normalization, 1e5 u <= 1e12,
    # through the code the estimators run: prime_powers, and the spectrum
    # fold at floor 0.0, which keeps every entry
    rng = np.random.Generator(np.random.Philox(key=77))
    u = rng.integers(1, 10**12, size=10**5)
    prod = np.ones_like(u)
    for idx, p, e in factor.prime_powers(u):
        prod[idx] *= p**e
    ok &= np.array_equal(prod, u)
    blocks = [(i + rows.start, v) for rows, _, i, v in factor.spectra_blocks(u, 0, 0.0)]
    idx = np.concatenate([i for i, _ in blocks])
    val = np.concatenate([v for _, v in blocks])
    worst_sum = float(np.abs(np.bincount(idx, weights=val, minlength=u.size) - 1.0).max())
    # a value's entries come one per batch, largest first
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    same = idx[1:] == idx[:-1]
    ok &= bool((val[1:][same] <= val[:-1][same]).all())
    ok &= worst_sum <= 1e-12
    details.append(f"round-trip 1e5 u<=1e12 ok, spectrum sum err {worst_sum:.1e}")

    # stick-breaking mass identity on 1e6 samples
    dev = pdprocess.mass_identity_max_deviation(10**6, seed=101, threads=4)
    ok &= dev <= 1e-12
    details.append(f"stick mass identity dev {dev:.1e}")

    # multiplicativity of h on coprime pairs <= 1e3 (exhaustive)
    g = arith.GFunctionSpec(kind="root_density", coeffs=(1, 0, 1))
    hv = arith._g_h_values(g, 10**6)[1]
    mult_ok = True
    for m in range(1, 1001):
        for n in range(m, 1001):
            if gcd(m, n) == 1 and hv[m * n] != hv[m] * hv[n]:
                mult_ok = False
    ok &= mult_ok
    details.append(f"h multiplicative on coprime pairs <= 1e3: {mult_ok}")

    # byte-identical reports across 1 vs 8 threads
    a, b = tmp_path / "t1.json", tmp_path / "t8.json"
    args = ["cdf", "--c", "[0.5, 0.3]", "--n-samples", "1000000", "--seed", "55"]
    assert cli.main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert cli.main(args + ["--threads", "8", "--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    ok &= same
    details.append(f"reports byte-identical across 1 vs 8 threads: {same}")

    dt = time.perf_counter() - t0
    ok &= dt < 180.0
    assert record_verdict("AC10", ok, "; ".join(details) + f"; {dt:.1f}s (<180s)")
