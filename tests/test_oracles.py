"""The exact-count oracles of the acceptance suite, against sympy brute force.

Every count is recomputed member by member from ``sympy.factorint`` with
integer threshold tests, at x near 10^4.  The test references themselves
(``oracles``, ``scalar``, ``scalar_spectra``) are checked to import no
pdlab code.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

import oracles

X = 10**4
XS = (X - 1, X)


@pytest.fixture(scope="module")
def pc():
    return oracles.PrimeCounts(X)


@pytest.fixture(scope="module")
def factored():
    return {u: sympy.factorint(u) for u in range(2, X + 1)}


def _ge_power(p: int, u: int, t: Fraction) -> bool:
    """p >= u**t, in integers."""
    return p**t.denominator >= u**t.numerator


@pytest.mark.parametrize("name", ["oracles.py", "scalar.py", "scalar_spectra.py"])
def test_references_import_no_pdlab(name):
    # the references stay independent of the code they check
    nodes = list(ast.walk(ast.parse((Path(__file__).parent / name).read_text())))
    modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    assert "pdlab" not in {m.split(".")[0] for m in modules}, name


def test_sieve_and_pi(pc):
    assert pc.primes.tolist() == list(sympy.primerange(2, X + 1))
    for n in (0, 1, 2, 3, 10, 97, 100, 1000, 7919, X):
        assert pc.pi(n) == sympy.primepi(n)
    assert pc.between(90, 110).tolist() == [97, 101, 103, 107, 109]
    with pytest.raises(ValueError):
        pc.pi(X + 1)


def test_integer_roots():
    for k in (1, 2, 3, 4, 19):
        for n in list(range(200)) + [10**30 + 7, 56**20, 631**10]:
            r = oracles.iroot(n, k)
            assert r**k <= n < (r + 1) ** k
            c = oracles.iroot_ceil(n, k)
            assert c**k >= n and (c == 0 or (c - 1) ** k < n)


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("eps", ["1/20", "1/10", "1/5", "1/3", "2/5", "1/2"])
def test_tail_count(pc, factored, x, eps):
    eps = Fraction(eps)
    want = 1 + sum(
        _ge_power(max(factored[u]), u, 1 - eps) for u in range(2, x + 1)
    )
    assert oracles.tail_count(x, eps, pc) == want


def _in_interval_count(f: dict, u: int, interval) -> int:
    """Spectrum entries of u in the closed interval, with multiplicity."""
    a, b = (Fraction(v) for v in interval)
    return sum(
        e
        for p, e in f.items()
        if _ge_power(p, u, a) and p**b.denominator <= u**b.numerator
    )


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize(
    "interval", [("1/4", "1/2"), ("3/20", "1/4"), ("3/10", "2/5"), ("1/3", "1")]
)
def test_box_count(pc, factored, x, interval):
    want = sum(_in_interval_count(factored[u], u, interval) for u in range(2, x + 1))
    assert oracles.box_count(x, interval, pc) == want


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize(
    "first, second",
    [
        (("3/20", "1/4"), ("3/10", "2/5")),
        (("3/10", "2/5"), ("3/20", "1/4")),
        (("1/5", "1/3"), ("1/2", "1")),
    ],
)
def test_box_pair_count(pc, factored, x, first, second):
    want = sum(
        _in_interval_count(factored[u], u, first)
        * _in_interval_count(factored[u], u, second)
        for u in range(2, x + 1)
    )
    assert oracles.box_pair_count(x, first, second, pc) == want


def test_box_pair_count_rejects_overlap(pc):
    with pytest.raises(ValueError):
        oracles.box_pair_count(X, ("1/5", "1/3"), ("1/4", "1/2"), pc)


def test_popcount_parity():
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [np.arange(300), rng.integers(0, 2**62, size=2000)]
    ).astype(np.int64)
    want = [int(v).bit_count() % 2 == 1 for v in values.tolist()]
    assert oracles.odd_popcount(values).tolist() == want
    for x in range(1, 300):
        assert oracles.thue_morse_zero_count(x) == sum(
            n.bit_count() % 2 == 0 for n in range(1, x + 1)
        )


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("thue_morse", [False, True])
def test_cdf_half_count(pc, factored, x, thue_morse):
    def member(u):
        return not thue_morse or u.bit_count() % 2 == 0

    # L1(u) <= 1/2 iff P+(u)**2 <= u; L1(1) = 1
    want = sum(
        member(u) and max(factored[u]) ** 2 <= u for u in range(2, x + 1)
    )
    assert oracles.cdf_half_count(x, pc, thue_morse=thue_morse) == want


def test_largest_prime_factor_and_leading_entries(pc, factored):
    lpf = oracles.largest_prime_factor(X, pc)
    assert lpf[1] == 1
    assert all(lpf[u] == max(factored[u]) for u in range(2, X + 1))
    l1 = oracles.leading_entries(X, pc)
    assert l1.shape == (X,) and l1[0] == 1.0
    want = [math.log(max(factored[u])) / math.log(u) for u in range(2, X + 1)]
    np.testing.assert_allclose(l1[1:], want, rtol=1e-15, atol=0)


def test_residue_references(factored):
    values = np.arange(2, 2001)
    ds = np.arange(1, 60)
    want = [sum(all(factored[u].get(p, 0) >= e for p, e in sympy.factorint(int(d)).items())
                for u in range(2, 2001)) for d in ds]
    assert oracles.residue_counts(values, ds).tolist() == want
    qs = [9, 25, 49]
    hit = [any(factored[u].get(p, 0) >= 2 for p in (3, 5, 7)) for u in range(2, 2001)]
    assert oracles.divisible_by_any(values, qs).tolist() == hit
