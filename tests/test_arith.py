"""Multiplicative functions, polynomial root counting, g-function diagnostics."""

import math
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import scalar
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PrimeCounts
from sympy.polys.galoistools import gf_csolve

from pdlab import arith, factor
from pdlab.errors import ResourceBudgetError, ValidationError

X2_PLUS_1 = (1, 0, 1)  # constant-first: X**2 + 1
X3_MINUS_2 = (-2, 0, 0, 1)
FIBONACCI_POLY = (-1, -1, 1)  # X**2 - X - 1


def _discriminant(coeffs) -> int:
    """disc F by sympy, for F given constant-first."""
    x = sympy.Symbol("x")
    return int(sympy.discriminant(sympy.Poly(list(coeffs)[::-1], x)))


# primes for the scalar references, which factor integers to 1e8
PC = PrimeCounts(10**4)


def test_small_multiplicative_values():
    gv, _ = arith._g_h_values(arith.GFunctionSpec(kind="reciprocal_totient"), 12)
    assert gv[12] == 1 / 4 and gv[1] == 1.0  # phi(12) = 4, phi(1) = 1


def test_root_count_pk_examples():
    assert arith.poly_root_count(X2_PLUS_1, [5, 3, 2**2]).tolist() == [2, 0, 0]
    assert sorted(arith.roots_mod(X2_PLUS_1, 5)) == [2, 3]


def test_root_count_examples():
    assert arith.poly_root_count(X2_PLUS_1, [65, 1, 12]).tolist() == [4, 1, 0]
    # a scalar modulus is a one-element array
    assert arith.poly_root_count(X2_PLUS_1, 65).tolist() == [4]
    assert arith.poly_root_count(X2_PLUS_1, []).tolist() == []


@pytest.mark.parametrize("coeffs", [X2_PLUS_1, X3_MINUS_2, FIBONACCI_POLY])
def test_root_count_vs_exhaustive_scan(coeffs):
    h = arith.poly_root_count(coeffs, np.arange(1, 500))
    assert h.tolist() == [len(scalar.roots_mod(coeffs, d)) for d in range(1, 500)]


@pytest.mark.parametrize("coeffs", [X2_PLUS_1, X3_MINUS_2, FIBONACCI_POLY, (1, 1, 3)])
def test_hensel_bound(coeffs):
    # h(p**k) <= deg F whenever p does not divide disc F
    disc = _discriminant(coeffs)
    deg = arith.poly_degree(coeffs)
    for p in (2, 3, 5, 7, 11, 13, 97, 101):
        if disc % p == 0:
            continue
        h = arith.poly_root_count(coeffs, p ** np.arange(1, 6))
        assert ((0 <= h) & (h <= deg)).all()
        # unramified: the count is stable in k
        assert (h == h[0]).all(), f"p={p}"


def test_hensel_matches_scan_at_large_prime_powers():
    # beyond the scan budget the Hensel path must agree with direct checks
    p = 1009
    for k, h in zip((2, 3), arith.poly_root_count(X2_PLUS_1, [p**2, p**3])):
        scan = sum(
            1
            for r in arith.roots_mod(X2_PLUS_1, p)
            for lift in range(p ** (k - 1))
            if arith.poly_eval(X2_PLUS_1, r + lift * p) % p**k == 0
        )
        assert h == scan


# cubic to sextic, with leading coefficients that share primes with small p
HIGHER_DEGREE = [
    (-2, 0, 0, 1),
    (1, 1, 0, 3),
    (1, 0, 1, 0, 2),
    (3, 0, 0, 0, 5),
    (1, -1, 0, 5, 0, 6),
    (7, 0, 0, 0, 0, 0, 12),
    (1, 2, 3, 4, 5, 6, 7),
]


@pytest.mark.parametrize("coeffs", HIGHER_DEGREE)
def test_prime_root_count_higher_degree_vs_scan(coeffs):
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    h = arith.poly_root_count(coeffs, primes)
    assert h.tolist() == [len(scalar.roots_mod(coeffs, p)) for p in primes]


# degrees 1 to 6; 3X^2 + X + 1 has 3 | lead and 2X^2 + 2 has content 2
FINDER_POLYS = [
    (5, 7),
    (1, 0, 1),
    (1, 1, 3),
    (2, 0, 2),
    (7, -7, 2),
    (-2, 0, 0, 1),
    (1, 1, 0, 0, 1),
    (1, -1, 0, 5, 0, 6),
    (7, 0, 0, 0, 0, 0, 12),
    (1, 2, 3, 4, 5, 6, 7),
]


@pytest.mark.parametrize("coeffs", FINDER_POLYS)
def test_roots_mod_primes_vs_scan(coeffs):
    small = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    near = list(sympy.primerange(10**5, 10**5 + 3000))[:200]
    primes = np.array(small + near)
    h, roots = arith.roots_mod_primes(coeffs, primes)
    assert roots.shape == (primes.size, arith.poly_degree(coeffs))
    for i, p in enumerate(primes.tolist()):
        scan = scalar.roots_mod(coeffs, p)
        assert h[i] == len(scan), f"p={p}"
        if len(scan) < p:
            assert roots[i, : h[i]].tolist() == scan, f"p={p}"
            assert (roots[i, h[i] :] == -1).all()


@pytest.mark.parametrize("coeffs", [X2_PLUS_1, (1, 1, 3), (2, 0, 2)])
def test_root_counts_up_to_1e4_vs_scan(coeffs):
    # the density pass and the root classes both read h(p) from the finder
    hv = arith._g_h_values(arith.GFunctionSpec(kind="root_density", coeffs=coeffs), 10**4)[1]
    scan = [len(scalar.roots_mod(coeffs, d)) for d in range(1, 10**4 + 1)]
    assert hv[1:].tolist() == scan
    assert arith.poly_root_count(coeffs, np.arange(1, 10**4 + 1)).tolist() == scan


# every residue is a root mod 2 while F != 0 mod 2: X^2 + X + 2, X^3 - X,
# and X^3 + X^2 + 2, which is also not squarefree mod 2
EVERY_RESIDUE_MOD_2 = [(2, 1, 1), (0, -1, 0, 1), (2, 0, 1, 1)]


@pytest.mark.parametrize(
    "coeffs",
    [X2_PLUS_1, X3_MINUS_2, (1, 1, 3), (2, 0, 2), (7, -7, 2), (7, 0, 1), *EVERY_RESIDUE_MOD_2],
)
def test_root_classes_vs_scan(coeffs):
    own, r = arith.root_classes(coeffs, np.arange(1, 1001))
    assert np.all(np.diff(own) >= 0)
    for d in range(1, 1001):
        assert sorted(r[own == d - 1].tolist()) == scalar.roots_mod(coeffs, d), f"d={d}"
    # past the scan budget: a prime, a prime power and a squarefree product
    ds = [10**6 + 3, 5**9, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
    own, r = arith.root_classes(coeffs, ds)
    for i, d in enumerate(ds):
        got = r[own == i].tolist()
        assert len(set(got)) == len(got) == _sympy_count_mod(coeffs, d)
        assert all(0 <= v < d and arith.poly_eval(coeffs, v) % d == 0 for v in got)
    # one prime-power table with keys e = 1 and e >= 2 mixed, p = 2 among them
    p = np.array([2, 3, 2, 5, 3, 7, 2, 31, 7, 997])
    e = np.array([1, 1, 3, 2, 4, 1, 6, 2, 3, 1])
    h, roots = arith.roots_mod_prime_powers(coeffs, p, e)
    start = np.cumsum(h) - h
    for i, q in enumerate((p**e).tolist()):
        got = roots[start[i] : start[i] + h[i]].tolist()
        assert (got if e[i] == 1 else sorted(got)) == scalar.roots_mod(coeffs, q), f"q={q}"


@pytest.mark.parametrize(
    "coeffs, p",
    [
        ((1, 1, 3), 3),  # 3X^2 + X + 1: p | lead, disc = -11
        ((1, 0, 0, 5), 5),  # 5X^3 + 1: p | lead, disc = -675 = -27 * 25
        ((1, 1, 0, 2), 2),  # 2X^3 + X + 1: p | lead, disc = -59
        ((4, 4), 2),  # 4X + 4: F = 0 mod 2, linear, so disc = 1
        ((1, 0, 1), 2),  # X^2 + 1: ramified, h(2) = 1 then 0
        ((6, 0, 3), 3),  # 3X^2 + 6 = 0 mod 3: every residue is a root
        ((1, 0, 5), 5),  # 5X^2 + 1 = 1 mod 5: no roots
    ],
)
def test_prime_power_root_counts_vs_scan(coeffs, p):
    want = [len(scalar.roots_mod(coeffs, p**k)) for k in range(1, 5)]
    assert arith.poly_root_count(coeffs, p ** np.arange(1, 5)).tolist() == want


def test_ramified_zero_propagates_past_scan_budget():
    # h(4) = 0 for X^2 + 1, so h(2^k) = 0 for k >= 2 with no scan of 2^k
    assert 2**20 > arith.SCAN_BUDGET
    assert arith.poly_root_count(X2_PLUS_1, [2**20, 5 * 2**20]).tolist() == [0, 0]
    # X^2 + 7 keeps four roots mod 2^k for k >= 3: the lift finds them
    h = arith.poly_root_count((7, 0, 1), [2**20])[0]
    assert h == 4 == len(scalar.roots_mod((7, 0, 1), 2**20))


def _sympy_root_count(coeffs, p):
    """Distinct roots of F in F_p, as sympy's linear factors of F mod p."""
    x = sympy.Symbol("x")
    f = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x, modulus=p)
    return sum(1 for q, _ in f.factor_list()[1] if q.degree() == 1)


def _sympy_count_mod(coeffs, m):
    """Roots of F mod m, counted by sympy's polynomial congruence solver."""
    return len(gf_csolve(list(reversed(coeffs)), m))


# (X - 1)(X - 2)(X - 3)(X - 5)(X - 7)(X - 11), constant first
SIX_ROOTS = (2310, -5237, 4285, -1646, 316, -29, 1)


@pytest.mark.parametrize(
    "coeffs, p",
    [
        (X2_PLUS_1, 10**12 + 39),  # p = 3 mod 4: no roots
        (X2_PLUS_1, 10**12 + 61),  # p = 1 mod 4: two roots
        (X3_MINUS_2, 10**12 + 39),
        (SIX_ROOTS, 2**31 - 1),
        ((1, 2, 3, 4, 5, 6, 7), 2**31 - 1),
        (SIX_ROOTS, 536870909),  # the largest prime below 2**29
    ],
)
def test_prime_root_count_at_large_primes_vs_sympy(coeffs, p):
    # exact for primes of any size: int64 columns below 2**29, Python
    # integers above
    want = _sympy_root_count(coeffs, p)
    assert arith.poly_root_count(coeffs, [p])[0] == want
    h, roots = arith.roots_mod_primes(coeffs, [p])
    assert h[0] == want
    got = roots[0, :want].tolist()
    assert len(set(got)) == want
    assert all(0 <= r < p and arith.poly_eval(coeffs, r) % p == 0 for r in got)


def test_root_classes_take_every_modulus():
    # X^2 + 7 keeps four roots mod 2^k for k >= 3, found by the lift past
    # the scan budget; d >= 2**29 runs in Python integers
    ds = [2**20, 2**19, 3 * 2**20, 2**29, 10**12 + 1, 11]
    own, r = arith.root_classes((7, 0, 1), ds)
    for i in (0, 1, 2):
        assert sorted(r[own == i].tolist()) == scalar.roots_mod((7, 0, 1), ds[i]), ds[i]
    for i in (3, 4):
        got = r[own == i].tolist()
        assert len(set(got)) == len(got) == _sympy_count_mod((7, 0, 1), ds[i])
        assert all(0 <= v < ds[i] and (v * v + 7) % ds[i] == 0 for v in got)
    assert sorted(r[own == 5].tolist()) == [2, 9]


@pytest.mark.parametrize("coeffs", [(5,), (0,), (0, 0), ()])
def test_root_finders_refuse_constant_polynomials(coeffs):
    with pytest.raises(ValidationError):
        arith.roots_mod_primes(coeffs, [7])
    with pytest.raises(ValidationError):
        arith.root_classes(coeffs, [7])


@pytest.mark.parametrize(
    "coeffs, p, ks",
    [
        ((7, 0, 1), 2, range(1, 41)),  # X^2 + 7: four roots mod 2^k, k >= 3
        ((1009, 0, 1), 1009, [2]),  # X^2 + 1009: a double root mod 1009, none mod 1009^2
        ((6, 0, 3), 3, range(1, 13)),  # 3X^2 + 6 = 0 mod 3
        ((1, 1, 0, 0, 1), 229, [2, 3]),  # X^4 + X + 1, disc 229
        ((0, 0, 1), 2, range(1, 21)),  # X^2: 2^(k//2) roots mod 2^k
        ((1, 1, 3), 3, range(1, 9)),  # 3X^2 + X + 1: p | lead
        ((2, 0, 2), 2, range(1, 16)),  # 2X^2 + 2 = 0 mod 2: every residue
        (X2_PLUS_1, 10**12 + 61, [1, 2]),  # a prime above 2**29
        ((2, 1, 1), 2, range(1, 21)),  # X^2 + X + 2: every residue mod 2, F != 0 mod 2
    ],
)
def test_lifted_root_counts_vs_sympy(coeffs, p, ks):
    # root_classes factors each modulus by trial division, so a modulus
    # past MAX_PRIME_TABLE_LIMIT**2 asks the lift for its roots directly
    wants = {k: _sympy_count_mod(coeffs, p**k) for k in ks}
    small = [k for k in ks if p**k <= factor.MAX_PRIME_TABLE_LIMIT**2]
    h = arith.poly_root_count(coeffs, [p**k for k in small])
    assert h.tolist() == [wants[k] for k in small]
    for k in ks:
        want = wants[k]
        if p**k <= 2**22:
            assert want == len(scalar.roots_mod(coeffs, p**k)), f"k={k}"
        if k in small:
            own, r = arith.root_classes(coeffs, [p**k])
        else:
            n, r = arith.roots_mod_prime_powers(coeffs, np.array([p], dtype=object), np.array([k]))
            assert n.tolist() == [want], f"k={k}"
        got = sorted(r.tolist())
        assert len(set(got)) == len(got) == want
        assert all(arith.poly_eval(coeffs, v) % p**k == 0 for v in got), f"k={k}"


def test_root_counts_consult_no_discriminant():
    # the lift reads F'(r) mod p, so no root count needs disc F
    for coeffs in (X2_PLUS_1, (7, 0, 1), (2, 0, 2), *EVERY_RESIDUE_MOD_2):
        g = arith.GFunctionSpec(kind="root_density", coeffs=coeffs)
        gv, hv = arith._g_h_values(g, 600)
        own, r = arith.root_classes(coeffs, np.arange(1, 601))
        for d in range(1, 601):
            scan = scalar.roots_mod(coeffs, d)
            assert hv[d] == len(scan), f"d={d}"
            assert gv[d] == len(scan) / d
            assert sorted(r[own == d - 1].tolist()) == scan, f"d={d}"
        q = [2**9, 3**5, 7**4]
        want = [len(scalar.roots_mod(coeffs, m)) for m in q]
        assert arith.poly_root_count(coeffs, q).tolist() == want


def test_lift_through_the_density_pass():
    # X^2 has disc 0, so every prime power goes through the lift
    g = arith.GFunctionSpec(kind="root_density", coeffs=(0, 0, 1))
    hv = arith._g_h_values(g, 2**20)[1]
    for k in range(1, 21):
        assert hv[2**k] == len(scalar.roots_mod((0, 0, 1), 2**k)) == 2 ** (k // 2), f"k={k}"


def test_roots_mod_primes_batch_straddling_2_29():
    primes = [3, 5, 13, 10**5 + 3, 536870909, 536870923, 10**12 + 39, 10**12 + 61, 2**89 - 1]
    for coeffs in (X2_PLUS_1, (1, -1, 0, 5, 0, 6), (1, 2, 3, 4, 5, 6, 7)):
        h, roots = arith.roots_mod_primes(coeffs, primes)
        assert roots.dtype == object
        for i, p in enumerate(primes):
            hi, ri = arith.roots_mod_primes(coeffs, [p])
            assert h[i] == hi[0], p
            assert roots[i].tolist() == ri[0].tolist(), p


def test_quadratic_branch_equals_the_general_pass_on_random_quadratics():
    rng = np.random.default_rng(2022)
    primes = np.array(list(sympy.primerange(3, 3000)) + list(sympy.primerange(10**6, 10**6 + 400)))
    for _ in range(40):
        a = int(rng.choice([-1, 1])) * int(rng.integers(2, 60))
        b, c = (int(v) for v in rng.integers(-(10**7), 10**7, size=2))
        coeffs = (c, b, a)
        p = primes[a % primes != 0]
        want_h, want_r = arith._general_roots(coeffs, p, True)
        h, roots = arith._quadratic_roots(coeffs, p, True)
        assert h.tolist() == want_h.tolist(), coeffs
        assert roots.tolist() == want_r.tolist(), coeffs
        assert arith._quadratic_roots(coeffs, p, False)[0].tolist() == want_h.tolist()


QUADRATICS = [X2_PLUS_1, (7, 0, 1), (1, 1, 1), (30, -10, 1), (2, 3, 1), (1, 0, 3), (-5, 7, -3)]


@pytest.mark.parametrize("coeffs", QUADRATICS)
def test_quadratic_roots_vs_scan_below_1e3(coeffs):
    primes = np.array(list(sympy.primerange(2, 1000)))
    h, roots = arith.roots_mod_primes(coeffs, primes)
    for i, p in enumerate(primes.tolist()):
        scan = scalar.roots_mod(coeffs, p)
        assert h[i] == len(scan), p
        assert roots[i, : h[i]].tolist() == scan, p
        assert (roots[i, h[i] :] == -1).all(), p


@pytest.mark.parametrize("coeffs", QUADRATICS)
def test_quadratic_roots_at_large_primes(coeffs):
    # p = 7 divides the discriminant of X^2 + 7; X^2 + 3X + 2 has a square
    # discriminant mod every p; 65537, 786433 and 3221225473 have 16, 18 and
    # 30 factors of 2 in p - 1; past 2**29 the pass runs in Python integers
    near = [list(sympy.primerange(s, s + 2000))[:12] for s in (10**6, 2**31, 10**12, 10**18)]
    c, b, a = coeffs
    for primes, dtype in ([7, 65537, 786433, *near[0]], np.int64), (
        [3221225473, *near[1], *near[2], *near[3]], object,
    ):
        h, roots = arith.roots_mod_primes(coeffs, primes)
        assert roots.dtype == dtype
        assert h.tolist() == arith.roots_mod_primes(coeffs, primes, split=False)[0].tolist()
        for i, p in enumerate(primes):
            if a % p == 0:
                continue
            assert h[i] == 1 + sympy.legendre_symbol((b * b - 4 * a * c) % p, p), p
            got = roots[i, : h[i]].tolist()
            assert got == sorted(set(got)), p
            assert all(0 <= r < p and arith.poly_eval(coeffs, r) % p == 0 for r in got), p
            assert (roots[i, h[i] :] == -1).all(), p


def test_lift_refuses_a_root_list_past_the_budget():
    # X^6 has 2^(k - ceil(k/6)) roots mod 2^k: 2^33 at 2^40
    t0 = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="scan budget"):
        arith.poly_root_count((0, 0, 0, 0, 0, 0, 1), 2**40)
    assert time.perf_counter() - t0 < 5.0


def test_prime_root_count_cubic_above_scan_budget():
    p = 1_000_003
    assert p > arith.SCAN_BUDGET
    for coeffs in [X3_MINUS_2, (1, 1, 0, 3)]:
        assert arith.poly_root_count(coeffs, [p])[0] == len(scalar.roots_mod(coeffs, p))


def test_every_residue_a_root_past_the_scan_budget_is_refused():
    # p divides every coefficient, so every residue mod p is a root: h(p)
    # would be p, but the root classes would list all p of them
    p = 1_000_003
    assert p > arith.SCAN_BUDGET
    with pytest.raises(ResourceBudgetError, match="every residue"):
        arith.poly_root_count((p, 0, p), [p])
    # below the budget the p classes are listed and counted
    assert arith.poly_root_count((997, 0, 997), [997, 2 * 997]).tolist() == [997, 997]


def test_mertens_deviation_cubic_beyond_old_scan_limit():
    gr = arith.GFunctionSpec(kind="root_density", coeffs=X3_MINUS_2)
    dev = arith.mertens_deviation(gr, 10**6 + 10)
    assert math.isfinite(dev)
    assert abs(dev) <= 3.0


@pytest.mark.parametrize(
    "kind, coeffs",
    [
        ("reciprocal", ()),
        ("reciprocal_totient", ()),
        ("root_density", X2_PLUS_1),
        ("root_density", X3_MINUS_2),
    ],
)
def test_density_vector_is_correctly_rounded(kind, coeffs):
    g = arith.GFunctionSpec(kind=kind, coeffs=coeffs)
    gv, hv = arith._g_h_values(g, 2000)
    assert gv[0] == 0.0
    for n in range(1, 2001):
        exact = scalar.g(kind, coeffs, n, PC)
        assert gv[n] == float(exact), f"n={n}"
        if hv is not None:
            assert hv[n] == exact * n


def test_reciprocal_density_factors_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError("g = 1/n factored its arguments")

    monkeypatch.setattr(factor, "prime_powers", refuse)
    gv, hv = arith._g_h_values(arith.GFunctionSpec(kind="reciprocal"), 10**4)
    assert hv is None and gv[0] == 0.0
    assert all(gv[n] == 1 / n for n in range(1, 10**4 + 1))


def test_density_pass_totient_and_omega_vs_sympy():
    # the pass reads an int32 spf sieve; phi must stay exact
    x = 10**6
    gv, _ = arith._g_h_values(arith.GFunctionSpec(kind="reciprocal_totient"), x)
    rng = np.random.Generator(np.random.Philox(key=11))
    for n in rng.integers(1, x + 1, size=500).tolist():
        assert gv[n] == 1 / int(sympy.totient(n)), f"n={n}"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000)
)
def test_h_multiplicative_on_coprime_pairs(m, n):
    if gcd(m, n) != 1:
        return
    hm, hn, hmn = arith.poly_root_count(X2_PLUS_1, [m, n, m * n]).tolist()
    assert hmn == hm * hn


def test_g_eval_examples():
    # the scalar reference
    assert scalar.g("reciprocal_totient", (), 10, PC) == Fraction(1, 4)
    assert scalar.g("reciprocal", (), 7, PC) == Fraction(1, 7)
    assert scalar.g("root_density", X2_PLUS_1, 5, PC) == Fraction(2, 5)
    assert scalar.g("root_density", X2_PLUS_1, 4, PC) == 0
    assert scalar.g("root_density", (7, 0, 1), 8, PC) == Fraction(4, 8)


def test_g_in_unit_interval():
    for kind, coeffs in [
        ("reciprocal", ()),
        ("reciprocal_totient", ()),
        ("root_density", X2_PLUS_1),
        ("root_density", X3_MINUS_2),
    ]:
        gv, _ = arith._g_h_values(arith.GFunctionSpec(kind=kind, coeffs=coeffs), 2000)
        assert ((0 <= gv) & (gv <= 1)).all()


def test_g_growth_bound():
    # g(d) <= C**Omega(d) / d with C = max(deg F, primes dividing disc F)
    g = arith.GFunctionSpec(kind="root_density", coeffs=X2_PLUS_1)
    c = max(2, 2)  # deg 2; disc -4 has prime divisor 2
    hv = arith._g_h_values(g, 10**4)[1]
    for d in range(1, 10**4):
        assert hv[d] <= c ** sympy.primeomega(d)


def test_mertens_deviation_bounded():
    g = arith.GFunctionSpec(kind="reciprocal")
    for x in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7):
        assert abs(arith.mertens_deviation(g, x)) <= 3.0
    gt = arith.GFunctionSpec(kind="reciprocal_totient")
    assert abs(arith.mertens_deviation(gt, 100)) <= 3.0
    gr = arith.GFunctionSpec(kind="root_density", coeffs=X2_PLUS_1)
    assert abs(arith.mertens_deviation(gr, 10**4)) <= 3.0


def test_partial_sums():
    sum_g, sum_h = arith.partial_sums_gh(arith.GFunctionSpec(kind="reciprocal"), 10)
    assert sum_g == pytest.approx(float(Fraction(7381, 2520)), abs=1e-12)
    assert sum_h is None
    g = arith.GFunctionSpec(kind="root_density", coeffs=X2_PLUS_1)
    assert arith.partial_sums_gh(g, 1) == (1.0, 1.0)
    sum_g, sum_h = arith.partial_sums_gh(g, 1000)
    h = arith.poly_root_count(X2_PLUS_1, np.arange(1, 1001)).tolist()
    assert sum_h == sum(h)
    assert sum_h <= 1000 * sum_g
    brute_g = sum(hd / d for d, hd in enumerate(h, 1))
    assert sum_g == pytest.approx(brute_g, rel=1e-12)


def test_partial_sums_totient_polylog_growth():
    g = arith.GFunctionSpec(kind="reciprocal_totient")
    vals = [arith.partial_sums_gh(g, x)[0] for x in (10**2, 10**3, 10**4)]
    assert vals[0] < vals[1] < vals[2]
    # growth per decade is roughly constant (polylog), never decade-scale
    assert (vals[2] - vals[1]) < 2 * (vals[1] - vals[0]) + 1


def test_invalid_g_kind():
    with pytest.raises(ValidationError):
        arith.GFunctionSpec(kind="nope")


@pytest.mark.parametrize(
    "d",
    [
        (10**6 + 3) * (10**6 + 33),
        1000033 * 1000037,  # X^2 + 1: two roots mod each
        1000037 * 1000039,  # X^3 - 2: one root, then three
        1000037**2,
        2 * 1000033 * 1000037,
    ],
)
def test_scalar_functions_past_a_million_vs_sympy(d):
    # each d has a prime factor above 10**6, past any table kept between calls
    assert max(sympy.factorint(d)) > 10**6
    for coeffs in (X2_PLUS_1, X3_MINUS_2):
        assert arith.poly_root_count(coeffs, [d])[0] == _sympy_count_mod(coeffs, d)


@pytest.mark.parametrize("d", [(10**12 + 61) ** 2, 10**20])
@pytest.mark.parametrize(
    "count",
    [lambda d: arith.poly_root_count(X2_PLUS_1, d), lambda d: arith.root_classes(X2_PLUS_1, [d])],
    ids=["poly_root_count", "root_classes"],
)
def test_moduli_past_the_table_budget_are_refused(count, d):
    # factoring d needs primes past MAX_PRIME_TABLE_LIMIT; 10**20 is past int64 too
    with pytest.raises(ResourceBudgetError):
        count(d)


def test_density_pass_refuses_past_the_spf_budget():
    # refused before the arrays over 0..x are allocated
    g = arith.GFunctionSpec(kind="reciprocal")
    with pytest.raises(ResourceBudgetError):
        arith._g_h_values(g, factor.MAX_SPF_SIEVE_LIMIT + 1)
