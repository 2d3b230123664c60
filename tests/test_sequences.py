"""Sequence membership, enumeration, counting, and spec validation."""

import time

import numpy as np
import pytest
import sympy
from oracles import PrimeCounts
from scalar import membership

from pdlab import arith, sequences
from pdlab.errors import ResourceBudgetError, ValidationError
from pdlab.sequences import SequenceSpec


# primes for the scalar membership reference, which factors integers to 1e10
PC = PrimeCounts(10**5)


def test_membership_examples():
    # the scalar reference
    assert membership(sequences.thue_morse_zeros().to_dict(), 3, PC)  # 0b11
    assert not membership(sequences.thue_morse_zeros().to_dict(), 7, PC)  # 0b111
    assert membership(sequences.shifted_primes(1).to_dict(), 4, PC)  # 4+1=5
    assert membership(sequences.polynomial_values([1, 0, 1]).to_dict(), 10, PC)  # F(3)


def test_enumerate_examples():
    assert sequences.members(sequences.uniform_integers(), 5).tolist() == [1, 2, 3, 4, 5]
    assert sequences.members(sequences.shifted_primes(1), 10).tolist() == [1, 2, 4, 6, 10]


def test_reducible_polynomial_rejected():
    with pytest.raises(ValidationError):
        sequences.polynomial_values([0, 0, 1])  # X**2
    with pytest.raises(ValidationError):
        sequences.polynomial_values([-1, 0, 1])  # X**2 - 1
    with pytest.raises(ValidationError):
        sequences.polynomial_values([6, 5, 1])  # (X+2)(X+3)
    # negative leading coefficient is out too
    with pytest.raises(ValidationError):
        sequences.polynomial_values([1, 0, -1])


def test_rational_root_past_a_million_is_found():
    # c0 = 3 * 1000003 has a prime factor above 10**6, and -c0 is the root
    c0 = 3 * 1000003
    x = sympy.Symbol("x")
    for coeffs, irreducible in (([c0, 1, c0, 1], False), ([c0, 1, 0, 1], True)):
        poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)
        assert poly.is_irreducible == irreducible
        if irreducible:
            sequences.polynomial_values(coeffs)
        else:
            with pytest.raises(ValidationError, match="rational root"):
                sequences.polynomial_values(coeffs)


def _divisor_test(coeffs) -> bool:
    """The rational-root test over sympy's divisors of c0 and lead F: a
    root s/q when sum c_i s**i q**(deg - i) = 0."""
    deg = len(coeffs) - 1
    return any(
        sum(c * v**i * d ** (deg - i) for i, c in enumerate(coeffs)) == 0
        for d in sympy.divisors(coeffs[deg])
        for n in sympy.divisors(abs(coeffs[0]))
        for v in (n, -n)
    )


def test_quadratic_reducibility_from_the_discriminant():
    # a quadratic is settled with no factoring of c0, and it has a rational
    # root exactly when b**2 - 4ac is a square, which agrees with the
    # rational-root test over the divisors of c0 and of the leading
    # coefficient; about a third of the quadratics are products
    # (pX + q)(rX + s) by construction
    t0 = time.perf_counter()
    sequences.polynomial_values([10**18 + 3, 0, 1])
    assert time.perf_counter() - t0 < 0.5
    # double roots: (2X + 3)**2 and (X - 1)**2, discriminant 0
    for coeffs in ([9, 12, 4], [1, -2, 1]):
        assert sequences._has_rational_root(coeffs)
    rng = np.random.Generator(np.random.Philox(key=25))
    reducible = 0
    for _ in range(1000):
        if rng.random() < 0.3:
            p, r = (int(v) for v in rng.integers(1, 30, 2))
            q, s = (int(v) * int(rng.choice([-1, 1])) for v in rng.integers(1, 30, 2))
            coeffs = [q * s, p * s + q * r, p * r]
        else:
            coeffs = [int(rng.integers(-500, 501)), int(rng.integers(-500, 501)),
                      int(rng.integers(1, 50))]
            if coeffs[0] == 0:
                continue
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        want = _divisor_test(coeffs)
        assert want == (disc >= 0 and sympy.sqrt(disc).is_integer), coeffs
        assert sequences._has_rational_root(coeffs) == want, coeffs
        reducible += want
    assert 200 < reducible < 600


def test_cubic_reducibility_without_factoring():
    # cubics whose c0 is past the prime table budget are decided at once:
    # X**3 + 9e16 - 1 and X**3 + 1e17 + 3 are irreducible,
    # X**3 - (1e20 + 7)**3 is not
    for coeffs in ([9 * 10**16 - 1, 0, 0, 1], [10**17 + 3, 0, 0, 1]):
        t0 = time.perf_counter()
        sequences.polynomial_values(coeffs)
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValidationError, match="rational root"):
        sequences.polynomial_values([-(10**20 + 7) ** 3, 0, 0, 1])
    # triple and double roots: (2X + 3)**3, (X - 1)**2 (X + 2), and
    # (X + 1)(X**2 + 1)
    for coeffs in ([27, 54, 36, 8], [2, -3, 0, 1], [1, 1, 1, 1]):
        assert sequences._has_rational_root(coeffs)
    # against the divisor test; about 40% are products (pX + q)(rX**2 + sX + t)
    rng = np.random.Generator(np.random.Philox(key=29))
    reducible = 0
    for _ in range(1000):
        if rng.random() < 0.4:
            p, r = (int(v) for v in rng.integers(1, 20, 2))
            q, s, t = (int(v) for v in rng.integers(-60, 61, 3))
            coeffs = [q * t, p * t + q * s, p * s + q * r, p * r]
        else:
            coeffs = [int(v) for v in rng.integers(-500, 501, 3)] + [int(rng.integers(1, 50))]
        if coeffs[0] == 0:
            continue
        want = _divisor_test(coeffs)
        assert sequences._has_rational_root(coeffs) == want, coeffs
        reducible += want
    assert 300 < reducible < 600


def test_irreducible_polynomials_accepted():
    for coeffs in ([1, 0, 1], [-2, 0, 0, 1], [-1, -1, 1], [1, 1, 0, 0, 1], [7, 2]):
        sequences.polynomial_values(coeffs)


def test_conservative_rejection_documents_itself():
    # X**4 + 1 is irreducible over Q but reducible mod every prime; the
    # bounded certificate declines it rather than guessing
    with pytest.raises(ValidationError, match="conservative|certify|irreducib"):
        sequences.polynomial_values([1, 0, 0, 0, 1])


def test_irreducible_mod_p_vs_sympy():
    # random F of degree 4..6, X**4 + 1, and squares of irreducibles, whose
    # repeated factor only the distinct-degree gcds can catch
    x = sympy.Symbol("x")
    rng = np.random.Generator(np.random.Philox(key=24))
    polys = [(1, 0, 0, 0, 1)]
    for deg in (4, 5, 6):
        for _ in range(12):
            c = rng.integers(-20, 21, size=deg + 1).tolist()
            polys.append(tuple(c[:-1]) + (int(rng.integers(1, 6)),))
    for g in ((1, 0, 1), (1, 1, 1), (2, 1, 1), (-2, 0, 0, 1), (1, 1, 0, 1), (3, 0, 0, 2)):
        sq = sympy.Poly(list(g)[::-1], x) ** 2
        polys.append(tuple(int(c) for c in sq.all_coeffs()[::-1]))
    for coeffs in polys:
        for p in sequences._CERT_PRIMES:
            if coeffs[-1] % p == 0:
                continue
            want = sympy.Poly(list(coeffs)[::-1], x, modulus=p).is_irreducible
            assert sequences._irreducible_mod_p(coeffs, p) == want, f"F={coeffs}, p={p}"


def test_counting_examples():
    uni = sequences.uniform_integers()
    assert sequences.count(uni, 100) == 100
    assert sequences.class_counts(uni, 100, [7])[1].tolist() == [14]
    sp = sequences.shifted_primes(1)
    assert sequences.class_counts(sp, 10, [2])[1].tolist() == [4]  # members 2, 4, 6, 10
    poly = sequences.polynomial_values([1, 0, 1])
    brute = sum(1 for n in range(1, 11) if (n * n + 1) % 5 == 0 and n * n + 1 <= 101)
    assert sequences.class_counts(poly, 101, [5])[1].tolist() == [brute]


def test_count_in_class_invariant():
    # X**2 + 1 has 70 members up to 5000, too few for a value mask, so both
    # divisibility paths run; shifted_primes(5) has no members up to 1
    cases = [
        (sequences.uniform_integers(), 5000),
        (sequences.shifted_primes(1), 5000),
        (sequences.polynomial_values([1, 0, 1]), 5000),
        (sequences.thue_morse_zeros(), 5000),
        (sequences.shifted_primes(5), 1),
    ]
    for spec, x in cases:
        mem = sequences.members(spec, x).tolist()
        for d in (1, 2, 7, 30):
            n_div = int(sequences.class_counts(spec, x, [d])[1][0])
            assert 0 <= n_div <= sequences.count(spec, x) == len(mem)
            assert n_div == sum(m % d == 0 for m in mem), (spec, d)


@pytest.mark.parametrize(
    "coeffs, x, d",
    [
        ([1, 0, 1], 10**12 + 1, 10**12 + 1),  # d >= 2**29: F(10**6) = d
        ([1, 0, 1], 10**12, 2**31 - 1),
        ([1, 1, 0, 0, 1], 10**12, 1196883403),  # prime F(186) in (2**29, 2**31)
        ([7, 0, 1], 10**12, 2**20),  # ramified 2**20, lifted past the scan budget
        ([7, 0, 1], 10**12, 3 * 2**21),
    ],
)
def test_count_in_class_past_the_root_classes(coeffs, x, d):
    spec = sequences.polynomial_values(coeffs)
    mem = sequences.members(spec, x)
    want = int(np.count_nonzero(mem % d == 0))
    assert sequences.class_counts(spec, x, [d])[1].tolist() == [want]
    # mixed with moduli the closed form takes, in one call
    ds = np.array([d, 1, 2, 8, 11, 2**19, 5**8])
    n, nd = sequences.class_counts(spec, x, ds)
    assert n == mem.size
    assert nd.tolist() == [int(np.count_nonzero(mem % q == 0)) for q in ds.tolist()]


@pytest.mark.parametrize(
    "spec",
    [
        sequences.uniform_integers(),
        sequences.shifted_primes(1),
        sequences.shifted_primes(-1),  # p + 1
        sequences.polynomial_values([1, 0, 1]),
        sequences.polynomial_values([-2, 0, 0, 1]),
        sequences.thue_morse_zeros(),
    ],
)
def test_enumerate_matches_membership_filter(spec):
    x = 10**4
    enumerated = sequences.members(spec, x).tolist()
    filtered = [n for n in range(1, x + 1) if membership(spec.to_dict(), n, PC)]
    assert enumerated == filtered


def test_poly_bounds_are_remembered_per_spec(monkeypatch):
    spec = sequences.polynomial_values([1, -2000, 1])  # n0 = 1002
    sequences._poly_bounds.cache_clear()
    calls = []
    real = arith.poly_eval
    monkeypatch.setattr(arith, "poly_eval", lambda c, n: calls.append(n) or real(c, n))
    assert sequences.poly_range(spec, 5).largest == 1  # F(2000)
    assert len(calls) > 1000
    calls.clear()
    assert sequences.poly_range(spec, 5).largest == 1
    assert 0 < len(calls) < 100  # the bisections only
    calls.clear()
    sequences._poly_bounds(spec)
    assert calls == []


def _members_by_loop(spec, x):
    """The enumeration loop that vectorized ``members`` replaced."""
    n0, _ = sequences._poly_bounds(spec)
    out = []
    n = 1
    while True:
        v = arith.poly_eval(spec.coeffs, n)
        if n >= n0 and v > x:
            break
        if 1 <= v <= x:
            out.append(v)
        n += 1
    return sorted(set(out))


# 2X^2 - 7X + 7 has F(1) = 2 and F(2) = 1 below F(3) = 4; X^2 - 10X + 1
# increases from n0 = 7 on but is positive only from n = 10
@pytest.mark.parametrize(
    "coeffs", [[1, 0, 1], [-2, 0, 0, 1], [2, 0, 2], [7, -7, 2], [1, -10, 1]]
)
def test_vectorized_members_equal_the_loop(coeffs):
    spec = sequences.polynomial_values(coeffs)
    for x in (1, 2, 3, 4, 10, 1000, 10**6):
        args, values = sequences.poly_arguments(spec, x)
        assert values.tolist() == _members_by_loop(spec, x), f"x={x}"
        assert sequences.members(spec, x).tolist() == values.tolist()
        assert [arith.poly_eval(coeffs, n) for n in args.tolist()] == values.tolist()
        assert sequences.count(spec, x) == values.size
        largest = int(values[-1]) if values.size else 0
        assert sequences.poly_range(spec, x).largest == largest


def test_members_refuse_an_inexact_int64_evaluation():
    # X^3 - 3X^2 + 3: F(N) <= 2**63 - 1 at N = 2097153, but N^3 + 3N^2 + 3,
    # which bounds the Horner partial sums, does not fit int64
    spec = sequences.polynomial_values([3, 0, -3, 1])
    with pytest.raises(ResourceBudgetError, match="int64"):
        sequences.members(spec, 2**63 - 1)


def test_shifted_primes_against_sympy():
    got = sequences.members(sequences.shifted_primes(1), 1000).tolist()
    want = [p - 1 for p in sympy.primerange(2, 1002)]
    assert got == [v for v in want if 1 <= v <= 1000]


def test_thue_morse_parity_vectorized_matches_popcount():
    got = sequences.members(sequences.thue_morse_zeros(), 5000)
    ref = [n for n in range(1, 5001) if bin(n).count("1") % 2 == 0]
    assert got.dtype == np.int64 and got.tolist() == ref


def test_regularity_ratio_falls():
    # definition (A): N(x**c) = o(N(x)); check the ratio drops with x
    for spec in (sequences.uniform_integers(), sequences.shifted_primes(1)):
        for c in (0.5, 0.9):
            ratios = []
            for x in (10**4, 10**5, 10**6):
                ratios.append(
                    sequences.count(spec, int(x**c)) / sequences.count(spec, x)
                )
            assert ratios[0] >= ratios[1] >= ratios[2] - 1e-9
        # at c = 0.5 the ratio is far below 0.2 by x = 1e6; at c = 0.9 it
        # cannot be (N(x**0.9)/N(x) is exactly x**-0.1 ~ 0.25 for uniform)
        assert sequences.count(spec, 10**3) / sequences.count(spec, 10**6) < 0.2


def test_spec_serialization_round_trip():
    for spec in (
        sequences.uniform_integers(),
        sequences.shifted_primes(-3),
        sequences.polynomial_values([1, 0, 1]),
        sequences.thue_morse_zeros(),
    ):
        assert SequenceSpec.from_dict(spec.to_dict()) == spec
    assert SequenceSpec.from_dict({"kind": "poly", "coeffs": [1, 0, 1]}).degree == 2
    with pytest.raises(ValidationError):
        SequenceSpec.from_dict({"kind": "martian"})


def test_g_function_assignment():
    assert sequences.uniform_integers().g_function().kind == "reciprocal"
    assert sequences.shifted_primes(1).g_function().kind == "reciprocal_totient"
    assert sequences.polynomial_values([1, 0, 1]).g_function().kind == "root_density"
    assert sequences.thue_morse_zeros().g_function().kind == "reciprocal"


def test_poly_arguments_start_past_the_turning_point_of_f():
    # n0 comes from F' = 2X alone, so no argument is checked one by one
    # for the large constant term
    spec = sequences.polynomial_values([10**9, 0, 1])
    t0 = time.perf_counter()
    assert sequences.count(spec, 10**12) == 999_499
    assert time.perf_counter() - t0 < 1.0
    assert membership(spec.to_dict(), 10**9 + 4, PC) and not membership(spec.to_dict(), 10**9, PC)


def test_far_turning_point_is_refused_before_the_loop():
    # X^2 - 3e9 X + 1 decreases up to n = 1.5e9, past the dense enumeration cap
    spec = sequences.polynomial_values([1, -3 * 10**9, 1])
    t0 = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="below n0"):
        sequences.count(spec, 10**6)
    assert time.perf_counter() - t0 < 1.0


W = sequences._WINDOW
# a prime above 2**20 and 1 mod 4, so X^2 + 1 has two roots mod it
BIG_P = 1048601
assert sympy.isprime(BIG_P) and BIG_P > W and BIG_P % 4 == 1


@pytest.mark.parametrize("window", [W, 4099])
@pytest.mark.parametrize("start", [0, 3, 5 * W])
def test_residue_passes_by_windows_equal_the_brute_force(monkeypatch, window, start):
    # start 0 and 3 give a mask from 0; 5 W is a far range, whose mask
    # starts at min(index); the mask spans 3.5 real windows, and steps run
    # from below the window to past the whole mask, on both sides of the
    # longest step taken by windows
    monkeypatch.setattr(sequences, "_WINDOW", window)
    rng = np.random.default_rng(start + window)
    span = 7 * W // 2
    index = np.unique(rng.integers(start, start + span, 20_000))
    # the few hits of each step past the real window: multiples of it, and
    # the arguments n with BIG_P | n^2 + 1
    hits = [np.arange(-start % q, span + 1, q) + start for q in (W + 1, BIG_P, 3 * W)]
    roots = sympy.sqrt_mod(-1, BIG_P, all_roots=True)
    hits += [np.arange((r - start) % BIG_P, span + 1, BIG_P) + start for r in roots]
    index = np.union1d(index, np.concatenate([[start, start + span], *hits]))
    longest = window // sequences._WINDOW_HITS
    ds = [*range(1, 40), longest, longest + 1, 1000, window - 1, window, window + 1]
    ds += [W + 1, BIG_P, 3 * W, 10 * span]
    want = [int(np.count_nonzero(index % d == 0)) for d in ds]
    got = sequences.count_divisible(index, ds)
    assert got.dtype == np.int64 and got.tolist() == want
    empty = sequences.count_divisible(index, [])
    assert empty.dtype == np.int64 and empty.shape == (0,)
    uniform, poly = sequences.uniform_integers(), sequences.polynomial_values([1, 0, 1])
    # 2029 and 2053 sit on either side of W / _WINDOW_HITS = 2048
    p = np.array([2, 3, 5, 13, 61, 1009, 2029, 2053, 4099, BIG_P])
    for e in (1, 2):
        q = (p**e).tolist()
        hit = sequences.divisible_by_any(uniform, index, p, e)
        assert hit.tolist() == [any(n % m == 0 for m in q) for n in index.tolist()]
        # the argument n of X^2 + 1 is marked when F(n) = n^2 + 1 is divisible
        hit = sequences.divisible_by_any(poly, index, p, e)
        assert hit.tolist() == [any((n * n + 1) % m == 0 for m in q) for n in index.tolist()]
    assert not sequences.divisible_by_any(uniform, index, p[:0], 1).any()
