"""Scalar references for pdlab's vector factoring, one integer at a time.

Like ``oracles``, the module imports nothing from ``pdlab``: numpy, the
standard library, and the primes of ``oracles.PrimeCounts``, whose limit
squared must reach every integer factored.  ``factorize`` divides by the
primes in chunks of doubling size, one vectorized remainder per chunk;
``spectrum`` takes logs by ``math.log``; ``g`` is exact, its root counts
from a scan over the residues (``roots_mod``); ``membership`` reads a
sequence as ``SequenceSpec.to_dict`` gives it, and decides n = F(m) by
the rational root theorem.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from oracles import PrimeCounts


def factorize(u: int, pc: PrimeCounts) -> tuple[tuple[int, int], ...]:
    """((p, e), ...) with u = prod p**e, p strictly ascending; () for u = 1."""
    if u < 1:
        raise ValueError(f"factorize needs u >= 1, got {u}")
    if pc.limit * pc.limit < u:
        raise ValueError(f"primes to {pc.limit} cannot factor {u}")
    primes = pc.primes
    hi = int(np.searchsorted(primes, math.isqrt(u), side="right"))
    rem, out = u, []
    lo, size = 0, 64
    while lo < hi and int(primes[lo]) ** 2 <= rem:
        cand = primes[lo : min(lo + size, hi)]
        for p in cand[rem % cand == 0].tolist():
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
        lo += size
        size *= 2
    if rem > 1:
        out.append((rem, 1))
    return tuple(out)


def spectrum(u: int, pc: PrimeCounts) -> tuple[float, ...]:
    """log p / log u for each prime p of u with multiplicity, descending;
    (1.0,) for u = 1 (the log 1 / log 1 convention)."""
    if u == 1:
        return (1.0,)
    logu = math.log(u)
    return tuple(
        sorted((math.log(p) / logu for p, e in factorize(u, pc) for _ in range(e)), reverse=True)
    )


def phi(d: int, pc: PrimeCounts) -> int:
    """Euler's totient of d >= 1."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(d, pc))


def roots_mod(coeffs, m: int) -> list[int]:
    """The roots of F mod m, F constant-first, ascending: Horner's rule
    mod m at every residue at once (m < 2**31, so products fit int64)."""
    r = np.arange(m, dtype=np.int64)
    val = np.zeros(m, dtype=np.int64)
    for c in reversed(coeffs):
        val = (val * r + c % m) % m
    return np.flatnonzero(val == 0).tolist()


def g(kind: str, coeffs, d: int, pc: PrimeCounts) -> Fraction:
    """g(d) exactly for the density kinds "reciprocal" (1/d),
    "reciprocal_totient" (1/phi(d)) and "root_density" (h(d)/d)."""
    if kind == "reciprocal":
        return Fraction(1, d)
    if kind == "reciprocal_totient":
        return Fraction(1, phi(d, pc))
    if kind == "root_density":
        return Fraction(math.prod(len(roots_mod(coeffs, p**e)) for p, e in factorize(d, pc)), d)
    raise ValueError(f"unknown density kind {kind!r}")


def membership(spec: dict, n: int, pc: PrimeCounts) -> bool:
    """Whether n >= 1 is a member of the sequence ``spec``, a dict with
    "kind" one of uniform, shifted_primes ("shift" a: n + a is prime),
    poly ("coeffs" of F: n = F(m) for an integer m >= 1) or thue_morse
    (n has an even number of binary 1s)."""
    kind = spec["kind"]
    if kind == "uniform":
        return True
    if kind == "shifted_primes":
        m = n + spec["shift"]
        return m >= 2 and factorize(m, pc) == ((m, 1),)
    if kind == "thue_morse":
        return bin(n).count("1") % 2 == 0
    if kind == "poly":
        # an integer root m != 0 of F(X) - n, after X^j is taken out,
        # divides its lowest nonzero coefficient
        coeffs = spec["coeffs"]
        low = next(c for c in [coeffs[0] - n, *coeffs[1:]] if c != 0)
        divisors = [1]
        for p, e in factorize(abs(low), pc):
            divisors = [a * p**i for a in divisors for i in range(e + 1)]
        return any(sum(c * m**i for i, c in enumerate(coeffs)) == n for m in divisors)
    raise ValueError(f"unknown sequence kind {kind!r}")
