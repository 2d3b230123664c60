"""Multiplicative arithmetic functions and per-sequence density functions g.

Covers the roots and distinct root counts h(d) of integer polynomials,
the density vectors g(n), and the Mertens-type diagnostics
sum_{p<=x} g(p) log p - log x.

One copy of F_p[X] arithmetic serves every prime: polynomials are the
columns of arrays of shape (degree, number of primes), in int64 when every
prime is below 2**29 and in Python integers otherwise, so results are exact
for primes of any size.  The root finder (``roots_mod_primes``) makes F
monic mod p, computes X^p mod F by square-and-multiply with a mask per
prime, takes g = gcd(F, X^p - X) by masked Euclid steps, so h(p) = deg g,
and splits g into its roots by Cantor-Zassenhaus with the fixed sequence
delta = 0, 1, 2, ... (Cantor & Zassenhaus, Math. Comp. 36, 1981; Cohen, A
Course in Computational Algebraic Number Theory, 1.6 and 3.4), so its
output is deterministic.  A quadratic F needs none of that: h(p) comes
from Euler's criterion on its discriminant and the roots from a square
root mod p in closed form (Cohen 1.5).  The finitely many primes dividing
the leading coefficient, and p = 2, are handled apart.
``roots_mod_prime_powers`` gives the roots mod every prime power p^e,
lifting the finder's roots one power of p at a time; F'(r) mod p decides
whether a root lifts once, p times or not at all.  ``root_classes``
combines them into the roots mod d by the Chinese remainder theorem, for
moduli of any size; h(d) is the number of those classes, and the
density pass reads the same table.  The vectors g(n), n <= x, of
g = 1/phi and g = h/d come from one prime-power pass that builds their
integer denominators or numerators exactly, so each g(n) is a correctly
rounded ratio; g = 1/n needs no pass.  The same column
helpers certify irreducibility for ``sequences``: F is irreducible mod p
when gcd(F, X^(p^d) - X) = 1 for every d <= deg F / 2.

Nothing here factors: the root classes and the density pass read
``factor.prime_powers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pdlab import factor
from pdlab.errors import ResourceBudgetError, ValidationError

# Longest residue list that a scan (roots_mod) or a root lift builds.
SCAN_BUDGET = 10**6


# ---------------------------------------------------------------------------
# integer polynomials, constant-first coefficient order


def poly_eval(coeffs, x):
    """F(x) by Horner's rule, for a Python integer or elementwise on an int64 array."""
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


def roots_mod(coeffs, m: int) -> list[int]:
    """All r in [0, m) with F(r) = 0 mod m, by vectorized residue scan."""
    if m < 1:
        raise ValidationError(f"modulus must be >= 1, got {m}")
    if m > SCAN_BUDGET:
        raise ResourceBudgetError(f"residue scan modulus {m} exceeds {SCAN_BUDGET}")
    return np.flatnonzero(_eval_mod(coeffs, np.arange(m), np.array([m])) == 0).tolist()


def _eval_mod(coeffs, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F(r) mod m elementwise, for residues r mod m, by Horner steps that
    each reduce mod m; int64 needs m < 2**31."""
    val = np.zeros_like(r)
    for c in reversed(coeffs):
        val = (val * r + _residues(c, m)) % m
    return val


# ---------------------------------------------------------------------------
# polynomials over F_p, for many primes at once
#
# Column j of a (rows, Q) array is a polynomial over F_p[j], constant first,
# and p is the matching (Q,) array of primes.  When every prime is below
# FINDER_PRIME_LIMIT = 2**29 the arrays are int64: a product of two residues
# is below 2**58, and the helpers add at most 12 products (degree <= 6)
# before reducing, so every intermediate stays below 2**62.  Otherwise they
# hold Python integers (dtype object) and are exact for primes of any size.

FINDER_PRIME_LIMIT = 1 << 29
assert factor.MAX_PRIME_TABLE_LIMIT < FINDER_PRIME_LIMIT


def _exact_array(values) -> np.ndarray:
    """values as int64 when all are below FINDER_PRIME_LIMIT, else as an
    object array of Python integers."""
    values = np.asarray(values)
    big = values.size and int(values.max()) >= FINDER_PRIME_LIMIT
    return values.astype(object if big else np.int64)


def _residues(c: int, m):
    """c mod each modulus of the array m, for an integer c of any size, in
    m's dtype."""
    if m.dtype != object and -(1 << 62) < c < 1 << 62:
        return np.int64(c) % m
    return (c % m.astype(object)).astype(m.dtype)


def _vpow(b, e, m) -> np.ndarray:
    """b**e mod m elementwise, by square-and-multiply with a mask per element.

    e and m may be arrays or scalars.  In int64 this needs m < 2**31, so
    that products of residues fit.
    """
    b = b % m
    r = np.ones_like(b) % m
    for bit in range(int(np.max(e, initial=0)).bit_length()):
        r = np.where((e >> bit) & 1 == 1, r * b % m, r)
        b = b * b % m
    return r


def _vdeg(a: np.ndarray) -> np.ndarray:
    """Degree of each column, -1 for the zero polynomial."""
    nz = a != 0
    return np.where(nz.any(axis=0), a.shape[0] - 1 - np.argmax(nz[::-1], axis=0), -1)


def _vreduce(t: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """t mod the monic columns f (d + 1 rows), as residues mod p.

    Entries of t may be sums of up to d unreduced products.  Each leading
    row is reduced before it multiplies f, and a lower row takes at most d
    more products, so only the rows that lead and the result are reduced.
    """
    d = f.shape[0] - 1
    for k in range(t.shape[0] - 1, d - 1, -1):
        t[k - d : k] -= t[k] % p * f[:d]
    return t[:d] % p


def _vsqrmod(a, f, p):
    """a**2 mod the monic f, columnwise over F_p."""
    d = a.shape[0]
    t = np.zeros((2 * d - 1, a.shape[1]), dtype=a.dtype)
    for i in range(d):
        t[i : i + d] += a[i] * a
    return _vreduce(t, f, p)


def _vmul_linear(a, delta, f, p):
    """a * (X + delta) mod the monic f, columnwise over F_p; delta < p."""
    d = a.shape[0]
    t = np.zeros((d + 1, a.shape[1]), dtype=a.dtype)
    t[1:] = a
    t[:d] += delta * a
    return _vreduce(t, f, p)


def _vpowmod(delta, e, f, p):
    """(X + delta)**e mod the monic f, columnwise, for exponents e >= 0.

    Left to right over the longest exponent: a shorter exponent's leading
    zero bits square the constant 1 and leave it unchanged.
    """
    r = np.zeros((f.shape[0] - 1, f.shape[1]), dtype=f.dtype)
    r[0] = 1
    for bit in reversed(range(int(np.max(e, initial=0)).bit_length())):
        r = _vsqrmod(r, f, p)
        r = np.where((e >> bit) & 1 == 1, _vmul_linear(r, delta, f, p), r)
    return r


def _vgcd(a, b, p):
    """(g, deg g): the monic gcd of columns a and b over F_p, a nonzero.

    Masked Euclid: each step cancels the leading term of the higher column
    by a multiple of the lower one, so no inverse is needed until the end.
    """
    da, db = _vdeg(a), _vdeg(b)
    rows = np.arange(a.shape[0])[:, None]
    while True:
        swap = db > da
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.maximum(da, db), np.minimum(da, db)
        live = db >= 0
        if not live.any():
            break
        dbz = np.maximum(db, 0)
        src = rows - (da - dbz)
        shifted = np.where(src >= 0, np.take_along_axis(b, np.maximum(src, 0), axis=0), 0)
        la = np.take_along_axis(a, da[None], axis=0)[0]
        lb = np.take_along_axis(b, dbz[None], axis=0)[0]
        a = np.where(live, (lb * a - la * shifted) % p, a)
        da = _vdeg(a)
    lead = np.take_along_axis(a, da[None], axis=0)[0]
    return a * _vpow(lead, p - 2, p) % p, da


def _split_roots(g, h, p, width):
    """Sorted roots of the monic split squarefree columns g (degree h) over F_p.

    Cantor-Zassenhaus with the fixed sequence delta = 0, 1, 2, ...: the
    gcds of a piece with (X + delta)**((p-1)/2) -/+ 1 part its roots r by
    the quadratic character of r + delta, and r = -delta, where that
    character is 0, is read off directly.  For odd p
    two distinct roots differ in that character for some delta < p, so
    every piece of degree >= 2 splits within p rounds.  Returns a
    (len(p), width) array, -1 padded.
    """
    rows = g.shape[0]
    pieces = [(g, h, np.arange(len(p)))]
    owner, found = [], []
    delta = 0
    while pieces:
        poly = np.concatenate([q for q, _, _ in pieces], axis=1)
        deg = np.concatenate([d for _, d, _ in pieces])
        own = np.concatenate([o for _, _, o in pieces])
        lin = deg == 1
        owner.append(own[lin])
        found.append(-poly[0, lin] % p[own[lin]])
        pieces = []
        for d in np.unique(deg[deg >= 2]).tolist():
            sel = np.flatnonzero(deg == d)
            gd, pd, od = poly[: d + 1, sel], p[own[sel]], own[sel]
            minus = -delta % pd
            w = _vpowmod(delta % pd, (pd - 1) // 2, gd, pd)
            for s in (1, -1):
                t = np.zeros_like(gd)
                t[:d] = w
                t[0] = (w[0] - s) % pd
                u, du = _vgcd(gd, t, pd)
                keep = du >= 1
                part = np.zeros((rows, int(keep.sum())), dtype=g.dtype)
                part[: d + 1] = u[:, keep]
                pieces.append((part, du[keep], od[keep]))
            at = np.zeros(sel.size, dtype=g.dtype)
            for row in gd[::-1]:
                at = (at * minus + row) % pd
            owner.append(od[at == 0])
            found.append(minus[at == 0])
        delta += 1
    owner, found = np.concatenate(owner), np.concatenate(found)
    order = np.lexsort((found, owner))
    owner, found = owner[order], found[order]
    first = np.searchsorted(owner, owner)
    out = np.full((len(p), width), -1, dtype=g.dtype)
    out[owner, np.arange(owner.size) - first] = found
    return out


def _monic(coeffs, p: np.ndarray) -> np.ndarray:
    """F mod each prime of p, made monic: columns of deg F + 1 rows, for
    primes not dividing lead F."""
    deg = poly_degree(coeffs)
    f = np.array([_residues(c, p) for c in coeffs[: deg + 1]])
    return f * _vpow(f[deg], p - 2, p) % p


def _xe_less_x(f: np.ndarray, e, p: np.ndarray) -> np.ndarray:
    """(X**e - X) mod the monic columns f, padded to f's rows."""
    one = np.zeros((f.shape[0] - 1, f.shape[1]), dtype=f.dtype)
    one[0] = 1
    out = np.zeros_like(f)
    out[:-1] = (_vpowmod(0, e, f, p) - _vmul_linear(one, 0, f, p)) % p
    return out


def _general_roots(coeffs, p, split: bool):
    """(h, roots) mod odd primes p not dividing lead F, for any degree: F
    made monic, X^p mod F, the masked gcd and the Cantor-Zassenhaus split."""
    f = _monic(coeffs, p)
    g, h = _vgcd(f, _xe_less_x(f, p, p), p)
    return h, _split_roots(g, h, p, poly_degree(coeffs)) if split else None


def _tonelli_shanks(d, p):
    """A square root of each quadratic residue d != 0 mod the odd prime p,
    by Tonelli-Shanks (Cohen 1.5.1), all primes at once.

    With p - 1 = 2**e q, q odd, x = d**((q+1)/2) is final where d**q = 1,
    as at every p = 3 (mod 4), where e = 1 and x = d**((p+1)/4).  Only the
    other primes take a non-residue z, the least one in the order 2, 3,
    5, 7, 9, ... (an even z > 2 is a non-residue only if 2 or z/2 is one):
    a candidate z is one exactly when y = z**q has order 2**e, so the test
    also gives y.  Each prime leaves the search once its z is found,
    and each Tonelli-Shanks step runs on the primes whose root is not yet
    final.
    """
    q, e, even = p - 1, np.zeros_like(p), np.arange(p.size)
    while even.size:
        q[even] //= 2
        e[even] += 1
        even = even[q[even] % 2 == 0]
    x = _vpow(d, (q - 1) // 2, p)
    b = d * x % p * x % p  # d**q, in the 2-Sylow subgroup of F_p^*
    x = d * x % p  # d**((q + 1)/2), so x**2 = d b
    live = np.flatnonzero(b != 1)
    y, todo, cand = np.zeros_like(p), live, 2
    while todo.size:
        pt, et = p[todo], e[todo]
        yt = _vpow(np.full(todo.size, cand, dtype=p.dtype), q[todo], pt)
        t = yt  # z**((p-1)/2) = y**(2**(e-1)), -1 for a non-residue
        for j in range(int(et.max()) - 1):
            t = np.where(et - 1 > j, t * t % pt, t)
        found = t == pt - 1
        y[todo[found]] = yt[found]  # generates the 2-Sylow subgroup
        todo, cand = todo[~found], cand + 1 + (cand > 2)
    while live.size:
        pl, bl, yl = p[live], b[live], y[live]
        # m: the order of b is 2**m, with m < e
        m, bm = np.zeros_like(bl), bl
        while (up := bm != 1).any():
            m, bm = m + up, np.where(up, bm * bm % pl, bm)
        k = e[live] - m - 1
        for j in range(int(k.max())):
            yl = np.where(k > j, yl * yl % pl, yl)  # y**(2**(e - m - 1))
        x[live] = x[live] * yl % pl
        y[live] = yl = yl * yl % pl
        e[live] = m
        b[live] = bl = bl * yl % pl
        live = live[bl != 1]
    return x


def _quadratic_roots(coeffs, p, split: bool):
    """(h, roots) of F = a X**2 + b X + c mod odd primes p not dividing a,
    in closed form: with disc = b**2 - 4ac mod p, h = 1 where p | disc and
    1 + (disc/p) otherwise, by Euler's criterion, and the roots are
    (-b +/- sqrt(disc)) / 2a, ascending and -1 padded.  Equal to the
    general pass, with no polynomial arithmetic."""
    c, b, a = coeffs[:3]
    disc = _residues(b * b - 4 * a * c, p)
    euler = _vpow(disc, (p - 1) // 2, p)
    h = np.where(disc == 0, 1, np.where(euler == 1, 2, 0)).astype(p.dtype)
    if not split:
        return h, None
    roots = np.full((p.size, 2), -1, dtype=p.dtype)
    one, two = h >= 1, h == 2
    pr, s = p[one], np.zeros_like(p[one])
    s[two[one]] = _tonelli_shanks(disc[two], p[two])
    inv = _vpow(_residues(2 * a, pr), pr - 2, pr)
    minus_b = _residues(-b, pr)
    r1, r2 = (minus_b + s) % pr * inv % pr, (minus_b - s) % pr * inv % pr
    roots[one, 0] = np.minimum(r1, r2)
    roots[two, 1] = np.maximum(r1, r2)[two[one]]
    return h, roots


def roots_mod_primes(coeffs, primes, split: bool = True):
    """(h, roots): the distinct roots of F modulo each of an array of primes.

    h[i] = h(p) = deg gcd(F mod p, X^p - X), the number of distinct roots
    in F_p, for every prime and degree.  roots[i, :h[i]] lists them
    ascending, -1 padded to width deg F; h[i] = p means every residue is a
    root (F = 0 mod p included), and the row is then not read.  With
    split=False only h is computed and roots is None.

    The primes not dividing lead F, except 2, go through one vectorized
    pass: F made monic mod p, X^p mod F by square-and-multiply, the masked
    gcd, and the Cantor-Zassenhaus split (``_general_roots``), or, for
    deg F = 2, the same h and roots in closed form (``_quadratic_roots``).
    The finitely many others: p = 2 by a residue scan, and p | lead F by
    the same pass on the lower-degree F mod p.  The pass runs in int64 when every prime is below
    FINDER_PRIME_LIMIT and in Python integers otherwise; h and roots come
    in that dtype, so a root mod a prime above 2**63 stays exact.
    """
    deg = poly_degree(coeffs)
    if deg < 1:
        raise ValidationError(f"roots mod p need deg F >= 1, got F = {tuple(coeffs)}")
    primes = _exact_array(primes)
    h = np.zeros(primes.size, dtype=primes.dtype)
    roots = np.full((primes.size, deg), -1, dtype=primes.dtype) if split else None
    lead = _residues(coeffs[deg], primes)
    fast = np.flatnonzero((lead != 0) & (primes != 2))
    if fast.size:
        finder = _quadratic_roots if deg == 2 else _general_roots
        h[fast], r = finder(coeffs, primes[fast], split)
        if split:
            roots[fast] = r
    for i in np.flatnonzero((lead == 0) | (primes == 2)).tolist():
        p = int(primes[i])
        f = [c % p for c in coeffs]
        d = poly_degree(f)
        if d < 0:
            h[i] = p
        elif p == 2:
            r = roots_mod(f, 2)
            h[i] = len(r)
            if split:
                roots[i, : len(r)] = r
        elif d >= 1:
            hi, ri = roots_mod_primes(f[: d + 1], primes[i : i + 1], split)
            h[i] = hi[0]
            if split:
                roots[i, :d] = ri[0]
    return h, roots


def roots_mod_prime_powers(coeffs, p, e):
    """(h, roots): the roots of F modulo each of an array of distinct prime
    powers p**e, e >= 1, with p**e exact in the dtype of p.

    h[i] = h(p[i]**e[i]), and the roots mod p[i]**e[i] are
    roots[s[i] : s[i] + h[i]] with s = cumsum(h) - h, ascending for e = 1.
    One roots_mod_primes call finds the roots mod every distinct prime; the
    rows with e = 1 read them from its matrix.  The lift takes the rest one
    power of p at a time, all rows at once: for j >= 1, F(r + t p^j) = F(r)
    + t p^j F'(r) mod p^(j+1), so a root r mod p^j lifts to the t mod p with
    F(r)/p^j + t F'(r) = 0 mod p, one t when p does not divide F'(r),
    otherwise all p or none.  Where every residue is a root mod p (F = 0
    mod p, or p <= deg F), the lift starts from all p residues.  A list
    for one modulus that would pass SCAN_BUDGET raises before it is
    built.  roots is int64 when every p**e is below
    FINDER_PRIME_LIMIT and may hold Python integers otherwise.
    """
    q = _exact_array(p**e)
    p = p.astype(q.dtype)
    primes, at = np.unique(p, return_inverse=True)
    hp, roots_p = roots_mod_primes(coeffs, primes)
    hp, roots_p, every = hp[at], roots_p[at], hp[at] == p
    if int(p[every].max(initial=0)) > SCAN_BUDGET:
        raise ResourceBudgetError(f"every residue mod {p[every].max()} is a root")
    n = hp.astype(np.int64)
    own = np.repeat(np.arange(q.size), n)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    r = np.where(every[own], k, roots_p[own, k % roots_p.shape[1]]).astype(q.dtype)
    pj = p[own]
    der = poly_derivative(coeffs)
    while (act := pj < q[own]).any():
        # each step runs in int64 while its moduli are below FINDER_PRIME_LIMIT
        o, m = own[act], _exact_array(pj[act] * p[own[act]])
        ra, pa, pja = (a.astype(m.dtype) for a in (r[act], p[o], pj[act]))
        val = _eval_mod(coeffs, ra, m) // pja
        slope = _eval_mod(der, ra, m) % pa
        one, full = slope != 0, (slope == 0) & (val == 0)
        size = np.bincount(o, np.where(full, pa, one).astype(float), minlength=q.size)
        if size.max() > SCAN_BUDGET:
            raise ResourceBudgetError(f"roots mod {q[size.argmax()]} pass the scan budget")
        n = pa[full].astype(np.int64)
        src = np.concatenate([np.flatnonzero(one), np.repeat(np.flatnonzero(full), n)])
        t = -val[one] * _vpow(slope[one], pa[one] - 2, pa[one]) % pa[one]
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        t = np.concatenate([t, k.astype(m.dtype)])
        own = np.concatenate([own[~act], o[src]])
        r = np.concatenate([r[~act], ra[src] + t * pja[src]])
        pj = np.concatenate([pj[~act], m[src]])
    return np.bincount(own, minlength=q.size), r[np.argsort(own, kind="stable")]


# ---------------------------------------------------------------------------
# root counts h(d) and root classes mod d


def poly_root_count(coeffs, ds) -> np.ndarray:
    """h(d), the number of roots of F mod d, for each modulus d >= 1 of ds
    (a scalar is one modulus): the count of its root classes
    (``root_classes``), so it refuses what they refuse.  That includes a
    prime p > SCAN_BUDGET dividing every coefficient of F, where every
    residue mod p is a root: ResourceBudgetError rather than h(p) = p.
    """
    ds = np.atleast_1d(ds)
    return np.bincount(root_classes(coeffs, ds)[0], minlength=ds.size)


def root_classes(coeffs, ds) -> tuple[np.ndarray, np.ndarray]:
    """(own, roots): every root r of F mod ds[own[j]] is roots[j], once,
    with own ascending, for each modulus d = ds[i] >= 1 of any size.

    One roots_mod_prime_powers call gives the roots mod every prime power
    of every modulus (factor.prime_powers, which refuses moduli past
    MAX_PRIME_TABLE_LIMIT**2); the roots mod d combine them by the Chinese
    remainder theorem, one prime power per step for all moduli, each step
    finding its roots in that table by one searchsorted.
    Below FINDER_PRIME_LIMIT = 2**29 the CRT runs in int64, every product
    below 2**58; with a larger modulus it runs in Python integers, and
    roots is an object array.
    """
    if poly_degree(coeffs) < 1:
        raise ValidationError(f"root classes need deg F >= 1, got F = {tuple(coeffs)}")
    ds = _exact_array(ds)
    if ds.size and int(ds.min()) < 1:
        raise ValidationError(f"root classes need moduli >= 1, got {int(ds.min())}")
    steps = [(pos, p, e, p**e) for pos, p, e in factor.prime_powers(ds)]
    p, e, q = (np.concatenate([s[j] for s in steps] + [ds[:0]]) for j in (1, 2, 3))
    keys, first = np.unique(q, return_index=True)
    count, flat = roots_mod_prime_powers(coeffs, p[first], e[first])
    begin, flat = np.cumsum(count) - count, flat.astype(ds.dtype)
    own, r, mod = np.arange(ds.size), np.zeros_like(ds), np.ones_like(ds)
    for pos, p, e, q in steps:
        i = np.searchsorted(keys, q)
        # idem = 1 mod q and 0 mod the modulus so far
        idem = mod[pos] * _vpow(mod[pos], (p - 1) * p ** (e - 1) - 1, q)
        # s: the step row of each root's modulus, -1 where it takes no factor
        s = np.full(ds.size, -1)
        s[pos] = np.arange(pos.size)
        s = s[own]
        move = s >= 0
        n = count[i[s[move]]]
        s = np.repeat(s[move], n)
        j = np.arange(s.size) - np.repeat(np.cumsum(n) - n, n)
        m2 = mod[pos[s]] * q[s]
        b = flat[begin[i[s]] + j]
        r2 = (np.repeat(r[move], n) * (m2 + 1 - idem[s]) + b * idem[s]) % m2
        own = np.concatenate([own[~move], pos[s]])
        r = np.concatenate([r[~move], r2])
        mod[pos] *= q
    order = np.argsort(own, kind="stable")
    return own[order], r[order]


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


def _g_at_primes(g: GFunctionSpec, primes: np.ndarray) -> np.ndarray:
    if g.kind == "reciprocal":
        return 1.0 / primes.astype(np.float64)
    if g.kind == "reciprocal_totient":
        return 1.0 / (primes.astype(np.float64) - 1.0)
    h = roots_mod_primes(g.coeffs, primes, split=False)[0]
    return h.astype(np.float64) / primes.astype(np.float64)


def mertens_deviation(g: GFunctionSpec, x: int) -> float:
    """sum_{p<=x} g(p) log p - log x, a boundedness diagnostic."""
    if x < 2:
        raise ValidationError(f"mertens_deviation requires x >= 2, got {x}")
    primes = factor.build_prime_table(x).primes
    gp = _g_at_primes(g, primes)
    return float(np.sum(gp * np.log(primes.astype(np.float64))) - math.log(x))


def _g_h_values(g: GFunctionSpec, x: int):
    """(g(n), h(n)) for 0 <= n <= x; g(n) = 1/n needs no factoring, the
    other kinds one factor.prime_powers pass.

    The pass gives each prime power p^e || n and builds the exact integer
    behind g: phi(n) for reciprocal_totient, the root count h(n) for
    root_density.  g(n) is then the correctly rounded ratio 1/n,
    1/phi(n) or h(n)/n.  h is None unless g is a root density; g(0) = 0.
    """
    if x > factor.MAX_SPF_SIEVE_LIMIT:
        raise ResourceBudgetError(f"density pass to {x} exceeds {factor.MAX_SPF_SIEVE_LIMIT}")
    n = np.arange(x + 1, dtype=np.int64)
    gv = np.zeros(x + 1, dtype=np.float64)
    if g.kind == "reciprocal":
        gv[1:] = 1.0 / n[1:]
        return gv, None
    num = np.ones(x + 1, dtype=np.int64)
    if g.kind == "root_density":
        # hq[q] = h(q) at every prime power q <= x; ps[j] holds the primes
        # with p**(j + 2) <= x
        primes = factor.build_prime_table(max(x, 2)).primes
        primes = primes[primes <= x]
        hq = np.zeros(x + 1, dtype=np.int64)
        hq[primes] = roots_mod_primes(g.coeffs, primes, split=False)[0]
        ps = [primes[primes <= math.isqrt(x)]]
        while ps[-1].size:
            ps.append(ps[-1][ps[-1] ** (len(ps) + 2) <= x])
        p, e = np.concatenate(ps), np.repeat(np.arange(2, len(ps) + 2), [a.size for a in ps])
        hq[p**e] = roots_mod_prime_powers(g.coeffs, p, e)[0]
    for idx, p, e in factor.prime_powers(n):
        if g.kind == "reciprocal_totient":
            num[idx] *= (p - 1) * p ** (e - 1)
        else:
            num[idx] *= hq[p**e]
    if g.kind == "root_density":
        num[0] = 0
        gv[1:] = num[1:] / n[1:]
        return gv, num
    gv[1:] = 1.0 / num[1:]
    return gv, None


def partial_sums_gh(g: GFunctionSpec, x: int):
    """(sum_{n<=x} g(n), sum_{n<=x} h(n) or None) for growth-trend checks."""
    if x < 1:
        raise ValidationError(f"partial_sums_gh requires x >= 1, got {x}")
    if x > 10**7:
        raise ResourceBudgetError(f"partial_sums_gh capped at x = 1e7, got {x}")
    gv, hv = _g_h_values(g, x)
    return float(np.sum(gv)), None if hv is None else float(np.sum(hv))

