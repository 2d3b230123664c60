"""Multiplicative arithmetic functions and per-sequence density functions g.

Covers the Euler totient, Omega, the threefold divisor function, distinct
root counts h(d) of integer polynomials, the density vectors g(n), and
the Mertens-type diagnostics sum_{p<=x} g(p) log p - log x.

Root counts follow one rule: the distinct roots of F in F_p are the roots
of gcd(F mod p, X^p - X), which costs O(D^2 log p) for any prime and any
degree D.  Off the discriminant each root is simple and lifts uniquely to
every p^k (Hensel), so only ramified prime powers need an exhaustive
residue scan.  The vectors g(n), n <= x, come from one spf pass that builds
their integer numerators exactly, so each g(n) is a correctly rounded ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from pdlab import factor
from pdlab.errors import ResourceBudgetError, ValidationError

# Largest modulus for exhaustive residue scans (ramified prime powers).
SCAN_BUDGET = 10**6

_table = None


def _small_table(need: int) -> factor.PrimeTable:
    global _table
    need = max(need, 10**6)
    if _table is None or _table.limit < need:
        _table = factor.build_prime_table(need)
    return _table


def _factorize(d: int) -> factor.Factorization:
    return factor.factorize(d, _small_table(math.isqrt(d) + 1))


def euler_phi(d: int) -> int:
    if d < 1:
        raise ValidationError(f"euler_phi requires d >= 1, got {d}")
    out = 1
    for p, e in _factorize(d).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def big_omega(d: int) -> int:
    """Number of prime factors counted with multiplicity; Omega(1) = 0."""
    if d < 1:
        raise ValidationError(f"big_omega requires d >= 1, got {d}")
    return sum(e for _, e in _factorize(d).factors)


def tau3(d: int) -> int:
    """Threefold divisor function: ordered triples d1*d2*d3 = d."""
    if d < 1:
        raise ValidationError(f"tau3 requires d >= 1, got {d}")
    out = 1
    for _, e in _factorize(d).factors:
        out *= (e + 1) * (e + 2) // 2
    return out


# ---------------------------------------------------------------------------
# integer polynomials, constant-first coefficient order


def poly_eval(coeffs, x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_derivative(coeffs) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(coeffs) if i >= 1)


def poly_degree(coeffs) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def _sylvester_det(f, g) -> int:
    """Resultant of f and g via Bareiss fraction-free elimination."""
    m, n = poly_degree(f), poly_degree(g)
    if m < 0 or n < 0:
        return 0
    size = m + n
    mat = [[0] * size for _ in range(size)]
    frev = list(reversed(f[: m + 1]))
    grev = list(reversed(g[: n + 1]))
    for i in range(n):
        mat[i][i : i + m + 1] = frev
    for i in range(m):
        mat[n + i][i : i + n + 1] = grev
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def discriminant(coeffs) -> int:
    """disc F = (-1)^(D(D-1)/2) Res(F, F') / lead, exactly in integers."""
    d = poly_degree(coeffs)
    if d < 1:
        raise ValidationError("discriminant needs degree >= 1")
    res = _sylvester_det(list(coeffs[: d + 1]), list(poly_derivative(coeffs)))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // coeffs[d]


def roots_mod(coeffs, m: int) -> list[int]:
    """All r in [0, m) with F(r) = 0 mod m, by vectorized residue scan."""
    if m < 1:
        raise ValidationError(f"modulus must be >= 1, got {m}")
    if m > SCAN_BUDGET:
        raise ResourceBudgetError(f"residue scan modulus {m} exceeds {SCAN_BUDGET}")
    if m == 1:
        return [0]
    r = np.arange(m, dtype=np.int64)
    val = np.zeros(m, dtype=np.int64)
    for c in reversed(coeffs):
        val = (val * r + c % m) % m
    return np.flatnonzero(val == 0).tolist()


# ---------------------------------------------------------------------------
# polynomials over F_p: constant-first lists without trailing zeros


def _poly_mod(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        c = a[-1] * inv % p
        shift = len(a) - 1 - dm
        for i, cm in enumerate(m):
            a[shift + i] = (a[shift + i] - c * cm) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_rem(out, m, p)


def _x_powmod(e, m, p):
    """X^e mod m over F_p, by left-to-right squaring and shifting."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _poly_mulmod(r, r, m, p)
        if bit == "1":
            r = _poly_rem([0] + r, m, p)
    return r


def _gcd_mod(a, b, p):
    a, b = _poly_mod(a, p), _poly_mod(b, p)
    while b:
        r = _poly_rem(a, b, p)
        a, b = b, r
    return a


def _minus_x(a, p):
    """a - X over F_p."""
    a = list(a) + [0] * (2 - len(a))
    a[1] -= 1
    return _poly_mod(a, p)


# ---------------------------------------------------------------------------
# root counts h(d)


def _root_count_mod_p(coeffs, p: int) -> int:
    """h(p) = deg gcd(F mod p, X^p - X), the number of distinct roots in F_p.

    Holds for every prime and degree, p | disc F and p | lead F included.
    F = 0 mod p has all p residues as roots; a nonzero constant has none.
    """
    f = _poly_mod(coeffs, p)
    if not f:
        return p
    return len(_gcd_mod(f, _minus_x(_x_powmod(p, f, p), p), p)) - 1


def _ramification(coeffs) -> int:
    """disc F times the content of F.

    A prime dividing neither has only simple roots of F mod p (the content
    matters only for degree 1, whose discriminant is 1).
    """
    return discriminant(coeffs) * math.gcd(*coeffs)


def poly_root_count_pk(coeffs, p: int, k: int, ram: int | None = None) -> int:
    """h(p^k): distinct roots of F modulo p^k.

    h(p) is the gcd count of _root_count_mod_p.  When p does not divide
    ``ram`` (disc F times the content of F, computed when not given), every
    root mod p is simple and lifts uniquely (Hensel), so h(p^k) = h(p) for
    every k.  At the remaining, ramified primes a root mod p^k reduces to
    one mod p^(k-1), so h(p^(k-1)) = 0 forces h(p^k) = 0; otherwise h(p^k),
    k >= 2, comes from an exhaustive residue scan subject to SCAN_BUDGET.
    """
    if k < 1:
        raise ValidationError(f"exponent k must be >= 1, got {k}")
    if ram is None:
        ram = _ramification(coeffs)
    if k == 1 or ram % p:
        return _root_count_mod_p(coeffs, p)
    if poly_root_count_pk(coeffs, p, k - 1, ram) == 0:
        return 0
    pk = p**k
    if pk > SCAN_BUDGET:
        raise ResourceBudgetError(
            f"p={p} is ramified for F and p**k={pk} exceeds the scan budget"
        )
    return len(roots_mod(coeffs, pk))


def poly_root_count(coeffs, d: int) -> int:
    """h(d) = prod over p^k || d of h(p^k), by CRT multiplicativity."""
    if d < 1:
        raise ValidationError(f"poly_root_count requires d >= 1, got {d}")
    ram = _ramification(coeffs)
    out = 1
    for p, e in _factorize(d).factors:
        out *= poly_root_count_pk(coeffs, p, e, ram)
        if out == 0:
            return 0
    return out


# ---------------------------------------------------------------------------
# the density functions g


@dataclass(frozen=True)
class GFunctionSpec:
    """Multiplicative density g: 1/d, 1/phi(d), or h(d)/d for a polynomial."""

    kind: str  # "reciprocal" | "reciprocal_totient" | "root_density"
    coeffs: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("reciprocal", "reciprocal_totient", "root_density"):
            raise ValidationError(f"unknown g-function kind {self.kind!r}")
        if self.kind == "root_density" and poly_degree(self.coeffs) < 1:
            raise ValidationError("root_density needs a polynomial of degree >= 1")


def g_eval(g: GFunctionSpec, d: int) -> Fraction:
    """Exact rational value of g(d), always in [0, 1]."""
    if d < 1:
        raise ValidationError(f"g_eval requires d >= 1, got {d}")
    if g.kind == "reciprocal":
        return Fraction(1, d)
    if g.kind == "reciprocal_totient":
        return Fraction(1, euler_phi(d))
    return Fraction(poly_root_count(g.coeffs, d), d)


def _g_at_primes(g: GFunctionSpec, primes: np.ndarray) -> np.ndarray:
    if g.kind == "reciprocal":
        return 1.0 / primes.astype(np.float64)
    if g.kind == "reciprocal_totient":
        return 1.0 / (primes.astype(np.float64) - 1.0)
    h = [_root_count_mod_p(g.coeffs, p) for p in primes.tolist()]
    return np.array(h, dtype=np.float64) / primes.astype(np.float64)


def mertens_deviation(g: GFunctionSpec, x: int) -> float:
    """sum_{p<=x} g(p) log p - log x, a boundedness diagnostic."""
    if x < 2:
        raise ValidationError(f"mertens_deviation requires x >= 2, got {x}")
    primes = _small_table(x).primes
    primes = primes[primes <= x]
    gp = _g_at_primes(g, primes)
    return float(np.sum(gp * np.log(primes.astype(np.float64))) - math.log(x))


def _g_h_values(g: GFunctionSpec, x: int):
    """(g(n), h(n), Omega(n)) for 0 <= n <= x from one spf division pass.

    The pass divides out each prime power p^e || n and builds the exact
    integer behind g: phi(n) for reciprocal_totient, the root count h(n)
    for root_density.  g(n) is then the correctly rounded ratio 1/n,
    1/phi(n) or h(n)/n.  h is None unless g is a root density; g(0) = 0.
    """
    spf = factor.smallest_factor_sieve(max(x, 2))[: x + 1]
    n = np.arange(x + 1, dtype=np.int64)
    num = np.ones(x + 1, dtype=np.int64)
    omega = np.zeros(x + 1, dtype=np.int8)
    if g.kind == "root_density":
        ram = _ramification(g.coeffs)

        @lru_cache(maxsize=None)
        def h_pk(p, k):
            return poly_root_count_pk(g.coeffs, p, k, ram)

    idx = n[2:]
    rem = idx.copy()
    while idx.size:
        # int64: the key p << 6 | e and phi(p**e) overflow int32 for p > 2**25
        p = spf[rem].astype(np.int64)
        rem //= p
        e = np.ones_like(p)
        sel = np.flatnonzero(rem % p == 0)
        while sel.size:
            rem[sel] //= p[sel]
            e[sel] += 1
            sel = sel[rem[sel] % p[sel] == 0]
        omega[idx] += e
        if g.kind == "reciprocal_totient":
            num[idx] *= (p - 1) * p ** (e - 1)
        elif g.kind == "root_density":
            # one count per distinct (p, e); e < 64 since n < 2**63
            key, inv = np.unique(p << 6 | e, return_inverse=True)
            hk = [h_pk(k >> 6, k & 63) for k in key.tolist()]
            num[idx] *= np.array(hk, dtype=np.int64)[inv]
        alive = rem > 1
        idx, rem = idx[alive], rem[alive]
    gv = np.zeros(x + 1, dtype=np.float64)
    if g.kind == "root_density":
        num[0] = 0
        gv[1:] = num[1:] / n[1:]
        return gv, num, omega
    gv[1:] = 1.0 / (num if g.kind == "reciprocal_totient" else n)[1:]
    return gv, None, omega


def partial_sums_gh(g: GFunctionSpec, x: int):
    """(sum_{n<=x} g(n), sum_{n<=x} h(n) or None) for growth-trend checks."""
    if x < 1:
        raise ValidationError(f"partial_sums_gh requires x >= 1, got {x}")
    if x > 10**7:
        raise ResourceBudgetError(f"partial_sums_gh capped at x = 1e7, got {x}")
    gv, hv, _ = _g_h_values(g, x)
    return float(np.sum(gv)), None if hv is None else float(np.sum(hv))


def empirical_c_bound(g: GFunctionSpec, dmax: int) -> float:
    """Smallest C with g(d) <= C**Omega(d) / d over 2 <= d <= dmax.

    The constant in the growth condition is existential; this reports the
    measured value max_d (d*g(d))**(1/Omega(d)).
    """
    if dmax < 2:
        raise ValidationError(f"empirical_c_bound requires dmax >= 2, got {dmax}")
    gv, _, omega = _g_h_values(g, dmax)
    d = np.arange(dmax + 1, dtype=np.float64)
    c = (gv[2:] * d[2:]) ** (1.0 / omega[2:])
    return float(np.max(c))
