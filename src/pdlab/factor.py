"""Prime generation and bulk factorization.

Two factorization strategies are provided:

* a smallest-prime-factor sieve over [1, limit] for dense value sets
  (``smallest_factor_sieve`` + ``bulk_spectra``), and
* vectorized trial division against a prime table for sparse or large
  values (``bulk_spectra_trial``), valid for any u with u <= limit**2.

Each strategy only produces a stream of (idx, p) batches, largest prime
first: batch j holds the (j+1)-th largest prime factor p, with
multiplicity, of every value at positions idx that has that many.  The
spf path reads it from a largest-prime-factor table derived from the
sieve; the trial path finds primes smallest first and regroups them by
rank from the top.  One spectrum fold turns either stream into the
normalized spectra, and its first three batches are the top-3 columns.
All value arithmetic is exact integer arithmetic; logarithms appear only
in that fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pdlab.errors import ResourceBudgetError, ValidationError

# Memory guards, in number of table entries.  The spf limit is below 2**31,
# so spf and P+ tables are int32: at the cap, 0.8 GB for spf plus 0.8 GB
# for the P+ table that bulk_spectra derives from it.
MAX_PRIME_TABLE_LIMIT = 300_000_000
MAX_SPF_SIEVE_LIMIT = 200_000_000


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class Factorization:
    """value = prod(p**e) with primes strictly ascending; value 1 has no factors."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev:
                raise ValidationError("factors must be ascending primes with e >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValidationError(
                f"factor product {prod} does not reconstruct value {self.value}"
            )


@dataclass(frozen=True)
class NormalizedSpectrum:
    """Descending entries log(p_j)/log(u), with multiplicity, summing to 1.

    For u = 1 the spectrum is the single entry 1 (the log 1/log 1 = 1
    convention); entries beyond the number of prime factors are treated
    as 0 when padding is needed.
    """

    u: int
    entries: tuple[float, ...]


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to limit (inclusive)."""
    if limit < 2:
        raise ValidationError(f"prime table limit must be >= 2, got {limit}")
    if limit > MAX_PRIME_TABLE_LIMIT:
        raise ResourceBudgetError(
            f"prime table limit {limit} exceeds budget {MAX_PRIME_TABLE_LIMIT}"
        )
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(is_prime).astype(np.int64))


def factorize(u: int, table: PrimeTable) -> Factorization:
    """Trial division by table primes up to sqrt(u).

    Requires table.limit**2 >= u: after removing all table prime factors
    p <= sqrt(remaining), at most one cofactor larger than the table limit
    remains and it is prime.
    """
    if u < 1:
        raise ValidationError(f"factorize requires u >= 1, got {u}")
    if table.limit * table.limit < u:
        raise ValidationError(
            f"prime table limit {table.limit} too small for u={u} (need limit**2 >= u)"
        )
    rem = u
    factors = []
    if 1 < u < 1 << 62:
        # every prime divisor except at most one cofactor is <= sqrt(u);
        # one vectorized scan finds them all at once
        hi = np.searchsorted(table.primes, math.isqrt(u), side="right")
        cand = table.primes[:hi]
        for p in cand[u % cand == 0].tolist():
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    else:
        # exact python-int path for values beyond int64 (up to 2**127 - 1)
        for p in table.primes:
            p = int(p)
            if p * p > rem:
                break
            if rem % p == 0:
                e = 0
                while rem % p == 0:
                    rem //= p
                    e += 1
                factors.append((p, e))
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(value=u, factors=tuple(factors))


def largest_prime(f: Factorization) -> int:
    """P+(u): the largest prime factor, with P+(1) = 1."""
    return f.factors[-1][0] if f.factors else 1


def spectrum(f: Factorization) -> NormalizedSpectrum:
    if f.value == 1:
        return NormalizedSpectrum(u=1, entries=(1.0,))
    logu = math.log(f.value)
    entries = []
    for p, e in f.factors:
        entries.extend([math.log(p) / logu] * e)
    entries.sort(reverse=True)
    return NormalizedSpectrum(u=f.value, entries=tuple(entries))


def smallest_factor_sieve(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 0 <= n <= limit (spf[1] = 1).

    int32: MAX_SPF_SIEVE_LIMIT < 2**31 bounds every entry.
    """
    if limit < 2:
        raise ValidationError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SPF_SIEVE_LIMIT:
        raise ResourceBudgetError(
            f"spf sieve limit {limit} exceeds budget {MAX_SPF_SIEVE_LIMIT}"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[1] = 1
    spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p] = p
            view = spf[p * p :: 2 * p]
            view[view == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset
    return spf


def _largest_factor_table(spf: np.ndarray) -> np.ndarray:
    """lpf[n] = P+(n) for 0 <= n < len(spf), with lpf[1] = 1, from an spf sieve.

    One vectorized pass per range [2**k, 2**(k+1)): there the quotient
    q = n // spf[n] is at most n/2, so lpf[q] is already final, and
    P+(n) = max(spf[n], P+(q)) (lpf[1] = 1 covers prime n).
    """
    lpf = spf.copy()
    lo = 4
    while lo < len(lpf):
        hi = min(2 * lo, len(lpf))
        s = spf[lo:hi]
        q = np.arange(lo, hi, dtype=spf.dtype) // s
        np.maximum(s, lpf[q], out=lpf[lo:hi])
        lo = hi
    return lpf


def _checked_values(values, vmax: int, table: str) -> np.ndarray:
    """values as an int64 array; ValidationError unless all are integers in [1, vmax]."""
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"values must be integers, got dtype {arr.dtype}")
    if int(arr.min()) < 1:
        raise ValidationError(f"values must be >= 1, got {arr.min()}")
    if int(arr.max()) > vmax:
        raise ValidationError(f"{table} too small for max value {arr.max()}")
    return arr.astype(np.int64, copy=False)


def _fold_spectra(values, batches):
    """Normalized spectra of values from a stream of (idx, p) batches.

    Batch j gives the (j+1)-th largest prime factor p, with multiplicity,
    of each value at positions idx (distinct within a batch); per value
    the primes must descend and multiply to the value.  Returns
    (entry_idx, entry_val, top3): a ragged pair list mapping each spectrum
    entry log(p)/log(u) to the int32 index of its value, in stream order,
    plus the three largest entries per value, padded with zeros, which are
    the first three batches.  u = 1 gets the single entry 1, appended last.
    """
    n = len(values)
    logs = np.log(np.maximum(values, 2).astype(np.float64))
    top = np.zeros((n, 3), dtype=np.float64)
    out_idx, out_val = [], []
    for j, (idx, p) in enumerate(batches):
        entry = np.log(p.astype(np.float64)) / logs[idx]
        if j < 3:
            top[idx, j] = entry
        out_idx.append(idx)
        out_val.append(entry)
    one = np.flatnonzero(values == 1).astype(np.int32)  # log 1 / log 1 = 1 convention
    top[one, 0] = 1.0
    out_idx.append(one)
    out_val.append(np.ones(one.size))
    return np.concatenate(out_idx), np.concatenate(out_val), top


def bulk_spectra(values, spf: np.ndarray):
    """Normalized spectra for a dense set of values covered by an spf sieve.

    Peels the largest prime factor first through a P+ table derived from
    spf.  Returns (entry_idx, entry_val, top3) as described in _fold_spectra.
    """
    values = _checked_values(values, len(spf) - 1, "spf sieve")

    def batches():
        lpf = _largest_factor_table(spf[: int(values.max(initial=1)) + 1])
        idx = np.flatnonzero(values > 1).astype(np.int32)
        rem = values[idx].astype(np.int32)
        while idx.size:
            p = lpf[rem]
            yield idx, p
            rem //= p
            alive = rem > 1
            idx, rem = idx[alive], rem[alive]

    return _fold_spectra(values, batches())


def bulk_spectra_trial(values, table: PrimeTable):
    """Normalized spectra by vectorized trial division (sparse/large values).

    Valid for values up to table.limit**2; each value's final cofactor
    beyond the table is prime by the trial-division contract.  Primes are
    found smallest first and regrouped by rank from the top before the
    fold.  Returns (entry_idx, entry_val, top3) as described in
    _fold_spectra.
    """
    values = _checked_values(
        values, table.limit * table.limit, f"prime table limit {table.limit}"
    )

    def ascending():
        idx = np.flatnonzero(values > 1).astype(np.int32)
        rem = values[idx]
        for p in table.primes.tolist():
            if idx.size == 0:
                return
            # cofactors below p*p are prime: retire them
            done = rem < p * p
            if done.any():
                yield idx[done], rem[done]
                idx, rem = idx[~done], rem[~done]
            sel = np.flatnonzero(rem % p == 0)
            while sel.size:
                yield idx[sel], np.full(sel.size, p, dtype=np.int64)
                rem[sel] //= p
                sel = sel[rem[sel] % p == 0]
            alive = rem > 1
            idx, rem = idx[alive], rem[alive]
        if idx.size:
            # remaining cofactors exceed every table prime squared: prime by contract
            yield idx, rem

    def descending():
        pairs = list(ascending())
        if not pairs:
            return
        idx = np.concatenate([i for i, _ in pairs])
        p = np.concatenate([q for _, q in pairs])
        # a stable sort by value keeps each value's primes ascending, so the
        # (j+1)-th largest prime of a value is j places before the end of its run
        order = np.argsort(idx, kind="stable")
        p = p[order]
        omega = np.bincount(idx, minlength=len(values))
        end = np.cumsum(omega)
        live = np.flatnonzero(omega).astype(np.int32)
        j = 0
        while live.size:
            yield live, p[end[live] - 1 - j]
            j += 1
            live = live[omega[live] > j]

    return _fold_spectra(values, descending())
