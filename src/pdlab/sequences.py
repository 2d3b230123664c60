"""The four arithmetic sequence families and their counting functions.

Each spec is an indicator sequence: uniform integers, shifted primes
p - a, values of an irreducible polynomial, and the Thue-Morse zero set
(even number of binary 1s).  Ascending enumeration up to x and the
counts N(x) and N_d(x) are exact.

Polynomial values are enumerated by their arguments: F increases from n0
on, past the real roots of F', so the n in [lo, N] with 1 <= F(n) <= x
come from integer bisections, the few n < n0 are checked one by one, and
F(n) is evaluated vectorized.  N_d(x) for polynomial values needs no
members: the n in [lo, N] with d | F(n) are those in the root classes of F
mod d (``arith.root_classes``), counted in closed form (``class_counts``)
for a modulus of any size.

Every other divisibility question about a member set is asked of its
index: the value itself for uniform, Thue-Morse and shifted primes, the
argument n for polynomial values.  p^e divides a member exactly when its
index lies in a residue class -- 0 mod p^e for a value, a root of F mod
p^e (``arith.roots_mod_prime_powers``) for an argument -- so
``divisible_by_any`` marks each class by strided writes over a boolean
array on [min(index), max(index)], and ``count_divisible`` counts the
multiples of d among values by strided reads of the same array.  Both
sweep the array one cache-sized window at a time, every class over a
window before the next.  The array never covers more than the one the
set was enumerated from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from pdlab import arith, factor
from pdlab.errors import ResourceBudgetError, ValidationError, integral

# Largest x for which dense enumeration (uniform / Thue-Morse) is allowed.
MAX_DENSE_X = 200_000_000
# Primes used to certify irreducibility of degrees 4..6 by reduction mod p.
_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Booleans per window of a residue-class pass (_class_slices): 1 MiB, which
# a core's cache holds while every class visits it
_WINDOW = 1 << 20
# Fewest positions a class visits in one window for the pass to take it
# window by window.  Per class, over masks of 1e7 and 1e8 bools on a 2-vCPU
# host, windows took 0.57-0.93x the time of one whole strided slice at 512
# to 682 positions per window, 0.83-1.03x at 256 and 1.2-1.9x at 170.
_WINDOW_HITS = 512

KINDS = ("uniform", "shifted_primes", "poly", "thue_morse")


@dataclass(frozen=True)
class SequenceSpec:
    """An arithmetic sequence under study, with the density g(d) paired with it.

    For kind "poly" the coefficients are constant-first, e.g. X**2 + 1 is
    (1, 0, 1); the polynomial must be irreducible over the rationals with
    positive leading coefficient, and degree is capped at 6 (the
    irreducibility certificate is a rational-root test up to degree 3 and
    reduction modulo small primes up to degree 6 -- polynomials such as
    X**4 + 1 that are reducible modulo every prime are conservatively
    rejected).
    """

    kind: str
    shift: int = 0
    coeffs: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown sequence kind {self.kind!r}")
        object.__setattr__(self, "shift", integral(self.shift, "shift"))
        if self.kind == "poly":
            coeffs = tuple(integral(c, "coefficient") for c in self.coeffs)
            object.__setattr__(self, "coeffs", coeffs)
            _check_poly(self.coeffs)

    def g_function(self) -> arith.GFunctionSpec:
        """The density g(d) paired with the sequence.

        Thue-Morse defaults to g(d) = 1/d: equidistribution in residue
        classes makes the relative density of the zero set 1/d, but this
        pairing is an editorial default, not a quoted result.
        """
        if self.kind == "shifted_primes":
            return arith.GFunctionSpec(kind="reciprocal_totient")
        if self.kind == "poly":
            return arith.GFunctionSpec(kind="root_density", coeffs=self.coeffs)
        return arith.GFunctionSpec(kind="reciprocal")

    def to_dict(self) -> dict:
        if self.kind == "shifted_primes":
            return {"kind": self.kind, "shift": self.shift}
        if self.kind == "poly":
            return {"kind": self.kind, "coeffs": list(self.coeffs)}
        return {"kind": self.kind}

    @staticmethod
    def from_dict(d: dict) -> "SequenceSpec":
        kind = d.get("kind")
        try:
            if kind == "shifted_primes":
                if "shift" not in d:
                    raise ValidationError("shifted_primes spec requires field 'shift'")
                return shifted_primes(d["shift"])
            if kind == "poly":
                if "coeffs" not in d:
                    raise ValidationError("poly spec requires field 'coeffs'")
                return polynomial_values(d["coeffs"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed {kind} spec {d!r}: {exc}") from exc
        if kind == "uniform":
            return uniform_integers()
        if kind == "thue_morse":
            return thue_morse_zeros()
        raise ValidationError(f"unknown sequence kind {kind!r}")


def uniform_integers() -> SequenceSpec:
    return SequenceSpec(kind="uniform")


def shifted_primes(a: int) -> SequenceSpec:
    """Members are the positive values p - a over primes p; a may be negative."""
    return SequenceSpec(kind="shifted_primes", shift=a)


def polynomial_values(coeffs) -> SequenceSpec:
    return SequenceSpec(kind="poly", coeffs=tuple(coeffs))


def thue_morse_zeros() -> SequenceSpec:
    return SequenceSpec(kind="thue_morse")


# ---------------------------------------------------------------------------
# irreducibility certification


def _check_poly(coeffs) -> None:
    deg = arith.poly_degree(coeffs)
    if deg < 1:
        raise ValidationError("polynomial degree must be >= 1")
    if deg > 6:
        raise ValidationError("polynomial degrees above 6 are not supported")
    if coeffs[deg] <= 0:
        raise ValidationError("polynomial must have positive leading coefficient")
    if len(coeffs) != deg + 1:
        raise ValidationError("trailing zero coefficients are not allowed")
    if deg == 1:
        return
    if coeffs[0] == 0:
        raise ValidationError("polynomial is reducible: X divides it")
    if deg <= 3:
        if _has_rational_root(coeffs):
            raise ValidationError("polynomial is reducible: it has a rational root")
        return
    for p in _CERT_PRIMES:
        if coeffs[deg] % p != 0 and _irreducible_mod_p(coeffs, p):
            return
    raise ValidationError(
        "could not certify irreducibility modulo small primes; "
        "polynomial rejected (this check is conservative)"
    )


def _has_rational_root(coeffs) -> bool:
    """Whether F of degree d = 2 or 3 has a rational root, with no
    factoring: with a = lead F, F(r) = 0 exactly when a r is a root of the
    monic integer G(Y) = a**(d-1) F(Y / a), so exactly when G has an
    integer root.  Those lie in (-B, B), B = 1 + max |g_i|, and G is
    monotone between the real roots of G', which math.isqrt places within
    one of the cuts; an integer bisection decides each piece."""
    deg = arith.poly_degree(coeffs)
    g = [c * coeffs[deg] ** (deg - 1 - i) for i, c in enumerate(coeffs[:deg])] + [1]

    def at(y):
        return sum(c * y**i for i, c in enumerate(g))

    if deg == 2:
        near = [-g[1] // 2]
    else:
        s = math.isqrt(max(g[2] ** 2 - 3 * g[1], 0))
        near = [(-g[2] - s) // 3, (-g[2] + s) // 3]
    bound = 1 + max(map(abs, g))
    cuts = sorted({-bound, bound, *(q + i for q in near for i in (-1, 0, 1, 2))})
    if any(at(c) == 0 for c in cuts):
        return True
    for lo, hi in itertools.pairwise(cuts):
        neg = at(lo) < 0
        while hi - lo > 1 and (at(hi) < 0) != neg:
            mid = (lo + hi) // 2
            if at(mid) == 0:
                return True
            lo, hi = (mid, hi) if (at(mid) < 0) == neg else (lo, mid)
    return False


def _irreducible_mod_p(coeffs, p: int) -> bool:
    """F irreducible over F_p, for deg F <= 6 and p not dividing lead F:
    gcd(F, X^(p^d) - X) = 1 for d = 1..deg//2, on one column of arith's
    F_p[X] helpers.

    The gcds alone decide: a reducible F has an irreducible factor of some
    degree d <= deg/2, repeated or not, and that factor divides
    X^(p^d) - X, so a repeated factor needs no squarefree test.
    """
    deg = arith.poly_degree(coeffs)
    col = np.array([p])
    f = arith._monic(coeffs, col)
    return all(
        arith._vgcd(f, arith._xe_less_x(f, p**d, col), col)[1][0] == 0
        for d in range(1, deg // 2 + 1)
    )


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=8)
def _poly_bounds(spec: SequenceSpec):
    """(n0, below): F increases for n >= n0, and ``below`` maps each
    positive value F(n), 1 <= n < n0, to its least such n.

    n0 is past the Cauchy bound 1 + max |c_i| / lead on the real roots of
    F', in integers.  The arguments below it are evaluated one by one, so
    more than MAX_DENSE_X of them raise ResourceBudgetError first.  The
    result is remembered per spec, with ``below`` read-only.
    """
    dcoeffs = arith.poly_derivative(spec.coeffs)
    ddeg = arith.poly_degree(dcoeffs)
    top = max((abs(c) for c in dcoeffs[:ddeg]), default=0)
    n0 = 2 - (-top // dcoeffs[ddeg])
    if n0 - 1 > MAX_DENSE_X:
        raise ResourceBudgetError(
            f"{n0 - 1} polynomial arguments below n0 exceed the dense enumeration cap"
        )
    below = {}
    for n in range(1, n0):
        v = arith.poly_eval(spec.coeffs, n)
        if v >= 1:
            below.setdefault(v, n)
    return n0, MappingProxyType(below)


def _poly_inverse(spec: SequenceSpec, n0: int, v: int) -> int:
    """The least n >= n0 with F(n) >= v, by bisection (F increases there)."""
    lo, hi = n0, n0
    while arith.poly_eval(spec.coeffs, hi) < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if arith.poly_eval(spec.coeffs, mid) < v:
            lo = mid + 1
        else:
            hi = mid
    return lo


class PolyRange(NamedTuple):
    """The members up to x are F(n) once each for n in [lo, hi] (lo is the
    first n >= n0 with F(n) >= 1; empty when hi < lo) and for the n in
    ``small``, arguments below n0 whose values no n in [lo, hi] gives.
    ``largest`` is the largest member, 0 when there is none."""

    lo: int
    hi: int
    small: list[int]
    largest: int


def poly_range(spec: SequenceSpec, x: int) -> PolyRange:
    """The arguments of the members up to x, with nothing of size N allocated:
    hi comes from an integer bisection and ``small`` from the few n < n0."""
    if x > np.iinfo(np.int64).max:
        raise ValidationError(f"x={x} exceeds the int64 range of polynomial values")
    n0, below = _poly_bounds(spec)
    lo = _poly_inverse(spec, n0, 1)
    hi = _poly_inverse(spec, n0, x + 1) - 1
    first = arith.poly_eval(spec.coeffs, lo)
    small = {
        v: n
        for v, n in below.items()
        if v <= x
        and not (
            first <= v and arith.poly_eval(spec.coeffs, _poly_inverse(spec, lo, v)) == v
        )
    }
    largest = max(small, default=0)
    if hi >= lo:
        largest = max(largest, arith.poly_eval(spec.coeffs, hi))
    return PolyRange(lo, hi, sorted(small.values()), largest)


def poly_arguments(spec: SequenceSpec, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(args, values): the members F(n) <= x ascending, each with one n >= 1.

    The N = hi - lo + 1 arguments where F increases are checked against
    MAX_DENSE_X before anything is allocated, and evaluated by int64
    Horner only when sum |c_i| hi**i, which bounds every partial sum, fits
    int64; otherwise ResourceBudgetError.
    """
    lo, hi, small, _ = poly_range(spec, x)
    if hi - lo + 1 > MAX_DENSE_X:
        raise ResourceBudgetError(
            f"{hi - lo + 1} polynomial arguments exceed the dense enumeration cap"
        )
    if sum(abs(c) * hi**i for i, c in enumerate(spec.coeffs)) > np.iinfo(np.int64).max:
        raise ResourceBudgetError(f"F(n) for n <= {hi} may overflow int64")
    args = np.concatenate([np.array(small, dtype=np.int64), np.arange(lo, hi + 1)])
    values = arith.poly_eval(spec.coeffs, args)
    if small:
        order = np.argsort(values, kind="stable")
        args, values = args[order], values[order]
    return args, values


def _poly_class_counts(spec: SequenceSpec, x: int, ds: np.ndarray):
    """(N(x), N_d(x) per d in ds): the n in [lo, hi] with F(n) = 0 mod d
    are those in the root classes of F mod d, counted per class in closed
    form, plus the few small arguments tested directly.  No member is
    enumerated."""
    lo, hi, small, _ = poly_range(spec, x)
    own, r = arith.root_classes(spec.coeffs, ds)
    d = ds[own]
    per_class = np.concatenate([[0], np.cumsum((hi - r) // d - (lo - 1 - r) // d)])
    ptr = np.searchsorted(own, np.arange(ds.size + 1))
    nd = (per_class[ptr[1:]] - per_class[ptr[:-1]]).astype(np.int64)
    for n in small:
        nd += arith.poly_eval(spec.coeffs, n) % ds == 0
    return len(small) + hi - lo + 1, nd


def members(spec: SequenceSpec, x: int) -> np.ndarray:
    """All members <= x, ascending, as an int64 array."""
    if x < 1:
        raise ValidationError(f"members requires x >= 1, got {x}")
    if spec.kind in ("uniform", "thue_morse"):
        if x > MAX_DENSE_X:
            raise ResourceBudgetError(f"x={x} exceeds dense enumeration cap")
        n = np.arange(1, x + 1, dtype=np.int64)
        return n if spec.kind == "uniform" else n[(np.bitwise_count(n) & 1) == 0]
    if spec.kind == "shifted_primes":
        top = x + spec.shift
        if top < 2:
            return np.empty(0, dtype=np.int64)
        primes = factor.build_prime_table(top).primes
        vals = primes - spec.shift
        return vals[vals >= 1]
    return poly_arguments(spec, x)[1]


# ---------------------------------------------------------------------------
# divisibility over a member set


def _index_mask(index: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, mask): a boolean array over [lo, max(index)], all False.  lo is
    0 when min(index) is no larger than the index range, so the mask at
    most doubles and callers index it without an offset copy of index;
    otherwise (a far range, or a negative index) lo = min(index)."""
    lo = int(index.min()) if index.size else 0
    hi = int(index.max(initial=lo))
    if 0 <= lo <= hi - lo:
        lo = 0
    return lo, np.zeros(hi - lo + 1, dtype=bool)


def _classes(spec: SequenceSpec, p: np.ndarray, e) -> tuple[np.ndarray, np.ndarray]:
    """(start, step): the index of a member lies in some class start[j]
    mod step[j] exactly when one of the prime powers p**e divides it; the
    class 0 mod p**e for a value, the roots of F mod p**e for an argument."""
    q = p**e
    if spec.kind != "poly":
        return np.zeros_like(q), q
    h, roots = arith.roots_mod_prime_powers(spec.coeffs, p, e)
    return roots, np.repeat(q, h)


def _class_slices(size: int, first: np.ndarray, step: np.ndarray):
    """(j, slice) pairs that together cover class j, the positions first[j]
    + i step[j] of an array of ``size``, for every j.

    A class with a step up to _WINDOW / _WINDOW_HITS is cut at each window
    of _WINDOW positions, and the pairs come window by window, every such
    class within one window before the next, so a pass over many classes
    reads each window while it is in cache.  A class with a longer step
    saves less in cache misses than the calls of a window each cost, and
    comes as one slice over the whole array; so there are at most one
    slice per class and one per _WINDOW_HITS positions visited.
    """
    small = step <= _WINDOW // _WINDOW_HITS
    for j in np.flatnonzero(~small):
        yield j, slice(first[j], size, step[j])
    small = np.flatnonzero(small)
    classes = list(zip(small.tolist(), first[small].tolist(), step[small].tolist()))
    for w0 in range(0, size, _WINDOW):
        w1 = min(w0 + _WINDOW, size)
        for j, f, q in classes:
            yield j, slice(w0 + (f - w0) % q, w1, q)


def divisible_by_any(
    spec: SequenceSpec, index: np.ndarray, p: np.ndarray, e
) -> np.ndarray:
    """Per member of the spec's set, given by its index (the value, or the
    argument n of a polynomial value): whether some p**e divides it."""
    lo, marks = _index_mask(index)
    start, step = _classes(spec, p, e)
    for _, sl in _class_slices(marks.size, (start - lo) % step, step):
        marks[sl] = True
    return marks[index - lo if lo else index]


def count_divisible(mem: np.ndarray, ds) -> np.ndarray:
    """N_d, the number of members divisible by d, for each d >= 1 in ds."""
    lo, mask = _index_mask(mem)
    mask[mem - lo if lo else mem] = True
    ds = np.asarray(ds, dtype=np.int64)
    counts = np.zeros(ds.size, dtype=np.int64)
    for j, sl in _class_slices(mask.size, -lo % ds, ds):
        counts[j] += np.count_nonzero(mask[sl])
    return counts


def class_counts(spec: SequenceSpec, x: int, ds) -> tuple[int, np.ndarray]:
    """(N(x), N_d(x) for each d >= 1 in ds): uniform in closed form,
    polynomial values by root classes mod d, other kinds by
    ``count_divisible`` over the members."""
    if x < 1:
        raise ValidationError(f"counts require x >= 1, got {x}")
    ds = np.asarray(ds, dtype=np.int64)
    if ds.size and int(ds.min()) < 1:
        raise ValidationError(f"moduli must be >= 1, got {int(ds.min())}")
    if spec.kind == "uniform":
        if x > np.iinfo(np.int64).max:
            raise ValidationError(f"x={x} exceeds the int64 range of the moduli")
        return x, x // ds
    if spec.kind == "poly":
        return _poly_class_counts(spec, x, ds)
    mem = members(spec, x)
    return len(mem), count_divisible(mem, ds)
