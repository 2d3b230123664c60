"""Exact finite-x counts for the acceptance criteria, by prime sieving.

Every statistic that the acceptance suite measures on the members u <= x
of a dense sequence is a ratio of integer counts.  This module settles
those counts exactly, with integer arithmetic only, so that a criterion
can compare an estimate at x = 10^7 with its exact finite-x value rather
than with an x -> oo limit that O(1/log x) corrections keep out of reach.

The module is deliberately independent of ``pdlab``: it has its own
sieve, its own popcount parity and its own largest-prime-factor table,
and it never factors a member.  The counts go through the prime
decomposition u = p * m instead, where p = P+(u) is the largest prime
factor of u.  Thresholds are exact rationals: the leading entry
L1(u) = log P+(u) / log u is compared with a = n/d through the integer
test P+(u)**d >= u**n, so ties at prime powers never depend on libm.
L1(1) = 1 by convention.  Each count is checked against sympy brute
force in ``tests/test_oracles.py``.

``residue_counts`` and ``divisible_by_any`` are the direct references for
pdlab's divisibility marks: one ``v % d`` pass over the values per modulus.
``sticks_from_uniforms`` is the stick-breaking reference for pdlab's
Poisson-Dirichlet sampler, exact on fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class PrimeCounts:
    """Sieve of Eratosthenes up to ``limit`` with pi(n) lookups."""

    def __init__(self, limit: int):
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if is_prime[p]:
                is_prime[p * p :: p] = False
        self.limit = limit
        self.primes = np.flatnonzero(is_prime)

    def pi(self, n: int) -> int:
        """Number of primes <= n."""
        if n > self.limit:
            raise ValueError(f"pi({n}) is beyond the sieve limit {self.limit}")
        return int(np.searchsorted(self.primes, n, side="right"))

    def between(self, lo: int, hi: int) -> np.ndarray:
        """The primes p with lo <= p <= hi."""
        if hi > self.limit:
            raise ValueError(f"{hi} is beyond the sieve limit {self.limit}")
        return self.primes[
            np.searchsorted(self.primes, lo) : np.searchsorted(
                self.primes, hi, side="right"
            )
        ]


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for an integer n >= 0, exactly (Newton from above)."""
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def iroot_ceil(n: int, k: int) -> int:
    """ceil(n ** (1/k)) for an integer n >= 0, exactly."""
    r = iroot(n, k)
    return r if r**k == n else r + 1


def tail_count(x: int, eps, pc: PrimeCounts) -> int:
    """#{1 <= u <= x : L1(u) >= 1 - eps}, for a rational 0 < eps = a/b <= 1/2.

    With u = p * m and p = P+(u) the condition reads p**a >= m**(b - a).
    That forces m <= p, so every prime p >= ceil((m**(b - a))**(1/a)) with
    p * m <= x is the largest prime factor of its product, once:
    the count is 1 + sum over m of #{such primes} (the 1 is u = 1).
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"eps must be a rational in (0, 1/2], got {eps}")
    a, b = eps.numerator, eps.denominator
    total = 1
    m = 1
    while True:
        lo = max(2, iroot_ceil(m ** (b - a), a))
        hi = x // m
        if lo > hi:
            return total
        total += pc.pi(hi) - pc.pi(lo - 1)
        m += 1


def _u_range(p: int, interval) -> tuple[int, int]:
    """The integers u with log p / log u in the closed [a, b]: u**a <= p <= u**b,
    that is p**(1/b) <= u <= p**(1/a), decided in integers."""
    a, b = (Fraction(v) for v in interval)
    if not 0 < a < b <= 1:
        raise ValueError(f"need 0 < a < b <= 1, got [{a}, {b}]")
    lo = iroot_ceil(p**b.denominator, b.numerator)
    hi = iroot(p**a.denominator, a.numerator)
    return lo, hi


def _multiples(lo: int, hi: int, d: int) -> int:
    """#{lo <= u <= hi : d | u} for lo >= 1."""
    return hi // d - (lo - 1) // d if lo <= hi else 0


def _prime_ranges(x: int, interval, pc: PrimeCounts) -> list[tuple[int, int, int]]:
    """(p, lo, hi) for each prime p with some u in [lo, hi], hi <= x, where
    log p / log u lies in the interval."""
    if _u_range(pc.limit + 1, interval)[0] <= x:
        raise ValueError("sieve limit too small for this interval and x")
    out = []
    for p in pc.primes.tolist():
        lo, hi = _u_range(p, interval)
        if lo > x:
            break
        out.append((p, lo, min(hi, x)))
    return out


def box_count(x: int, interval, pc: PrimeCounts) -> int:
    """sum over 2 <= u <= x of the number of spectrum entries of u in the
    closed interval, with multiplicity: sum over p, j of
    #{u <= x : p**j | u, log p / log u in [a, b]}."""
    total = 0
    for p, lo, hi in _prime_ranges(x, interval, pc):
        pj = p
        while pj <= hi:
            total += _multiples(lo, hi, pj)
            pj *= p
    return total


def box_pair_count(x: int, first, second, pc: PrimeCounts) -> int:
    """sum over u <= x of the ordered pairs of distinct spectrum entries
    (e1, e2) with e1 in ``first`` and e2 in ``second`` (disjoint closed
    intervals), i.e. sum over p != q of v_p(u) v_q(u), counted as
    sum over p**i q**j of #{u <= x : p**i q**j | u, u in both ranges}."""
    (a1, b1), (a2, b2) = ((Fraction(a), Fraction(b)) for a, b in (first, second))
    if not (b1 < a2 or b2 < a1):
        raise ValueError("the two intervals must be disjoint")
    total = 0
    second_ranges = _prime_ranges(x, second, pc)
    for p, lo1, hi1 in _prime_ranges(x, first, pc):
        for q, lo2, hi2 in second_ranges:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if p == q or lo > hi:
                continue
            pk = p
            while pk * q <= hi:
                d = pk * q
                while d <= hi:
                    total += _multiples(lo, hi, d)
                    d *= q
                pk *= p
    return total


_BYTE_PARITY = np.array([i.bit_count() & 1 for i in range(256)], dtype=np.uint8)


def odd_popcount(values: np.ndarray) -> np.ndarray:
    """popcount(v) is odd, for nonnegative int64 values, via a byte table."""
    as_bytes = np.ascontiguousarray(values, dtype=np.uint64).view(np.uint8)
    parity = _BYTE_PARITY[as_bytes.reshape(-1, 8)]
    return np.bitwise_xor.reduce(parity, axis=1).astype(bool)


def thue_morse_zero_count(x: int) -> int:
    """#{1 <= n <= x : popcount(n) even}.

    Among 2k and 2k + 1 exactly one has even popcount, so [0, x] holds
    floor((x + 1) / 2) of them plus x itself when x is even and
    qualifies; n = 0 is then taken off.
    """
    extra = x % 2 == 0 and x.bit_count() % 2 == 0
    return (x + 1) // 2 + int(extra) - 1


def cdf_half_count(x: int, pc: PrimeCounts, thue_morse: bool = False) -> int:
    """#{members u <= x : L1(u) <= 1/2} of the uniform integers, or of the
    Thue-Morse zeros (popcount even) when ``thue_morse``.

    L1(u) > 1/2 exactly when u = 1 or u = p * m with a prime p > m, and
    then p = P+(u); the count is the members minus those.
    """
    n_members = thue_morse_zero_count(x) if thue_morse else x
    big = 0 if thue_morse else 1  # u = 1 is a member only of the integers
    for m in range(1, math.isqrt(x) + 1):
        ps = pc.between(m + 1, x // m)
        if ps.size == 0:
            break
        big += (
            int(np.count_nonzero(~odd_popcount(ps * m))) if thue_morse else ps.size
        )
    return n_members - big


def largest_prime_factor(limit: int, pc: PrimeCounts) -> np.ndarray:
    """lpf[u] = P+(u) for 0 <= u <= limit, with lpf[0] = lpf[1] = 1."""
    lpf = np.ones(limit + 1, dtype=np.int64)
    for p in pc.between(2, limit).tolist():
        lpf[p::p] = p  # ascending p: the largest prime divisor writes last
    return lpf


def leading_entries(limit: int, pc: PrimeCounts) -> np.ndarray:
    """L1(u) = log P+(u) / log u in float64 for u = 1, ..., limit (L1(1) = 1)."""
    lpf = largest_prime_factor(limit, pc)
    out = np.ones(limit, dtype=np.float64)
    u = np.arange(2, limit + 1, dtype=np.float64)
    out[1:] = np.log(lpf[2:].astype(np.float64)) / np.log(u)
    return out


def residue_counts(values: np.ndarray, ds) -> np.ndarray:
    """#{v in values : d | v} for each d in ds, by one residue pass per d."""
    return np.array([np.count_nonzero(values % d == 0) for d in ds], dtype=np.int64)


def divisible_by_any(values: np.ndarray, qs) -> np.ndarray:
    """Per value: whether some q in qs divides it, by one residue pass per q."""
    hit = np.zeros(values.size, dtype=bool)
    for q in qs:
        hit |= values % q == 0
    return hit


def sticks_from_uniforms(us):
    """Unsorted sticks G_j from explicit uniforms; exact for exact inputs.

    Works with any numeric type (fractions included): returns
    (sticks, residual) with sum(sticks) + residual == 1 by telescoping.
    """
    sticks = []
    residual = 1
    for u in us:
        sticks.append(residual * (1 - u))
        residual = residual * u
    return sticks, residual
