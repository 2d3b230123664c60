"""Prime generation and factorization, the one place that chooses how.

``prime_powers`` factors any integer array, one integer included, through
an spf sieve when the values are dense (``is_dense``), else by one chunked
trial division; ``spectra_blocks`` chooses the same way.

Three peel sources produce the prime factors of a set of values:

* a smallest-prime-factor sieve over [1, limit] for dense value sets
  (``smallest_factor_sieve`` + ``bulk_spectra``), which peels the largest
  prime first through a P+ table derived from the sieve.  The sieve fills
  cache-sized segments from the odd primes <= sqrt(limit) of
  ``build_prime_table``, with no mask over the whole range;
* a sieve over the arguments n of polynomial values F(n)
  (``sieve_blocks``): p divides F(n) exactly when n lies in a root
  class of F mod p, so each class gives its p with no trial division;
* the trial division of ``prime_powers`` for other sparse values
  (``bulk_spectra_trial``), valid for u <= limit**2.

The last two find every prime smallest first, and one regroup
(``_from_the_top``) turns that stream into the same peel as the first.
A peel is a per-row step: step j gives the (j+1)-th largest prime factor
p, with multiplicity, of the value of every row, P+(rem) for the P+
table (then rem /= p), and for the regroup the prime j places before the
end of the value's run.  One spectrum fold (``_fold_spectra``) turns any peel
into what its consumer reads, and stops each value by one of two rules:

* top-k: the k largest entries per value are the first k batches, so a
  value needs no prime after its k-th;
* entries at or above a floor: entries descend, so a value retires at its
  first entry below the floor; floor = 0.0 keeps complete spectra.

The fold holds the rows still in play with the peel's per-row state and
log(u); in the step where rows finish, one take per array drops them, as
``pdprocess._stick_rounds`` does, so entries stay in ascending row order
per batch.  While a block has no value 1 and no row has finished, the
rows are the whole block: the fold then reads u and writes the top-k
columns by slices, with no gather or scatter by row.

The fold runs over blocks of at most MEMBER_BLOCK values (``_fold_blocks``):
each block peels from the shared P+ table, by its own trial division, or
by its own sieve over the arguments in one window of MEMBER_BLOCK
integers, and the last two regroup the block alone, so only the tables
and one block's arrays are resident.  The ``*_blocks`` functions yield
each block's top-k columns and entries for a consumer that reduces them
block by block; ``bulk_spectra`` and ``bulk_spectra_trial`` concatenate
them.

All value arithmetic is exact integer arithmetic; logarithms appear only
in that fold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from pdlab.errors import ResourceBudgetError, ValidationError

# Memory guards, in number of table entries.  The spf limit is below 2**31,
# so spf and P+ tables are int32: at the cap, 0.8 GB for spf plus 0.8 GB
# for the P+ table that bulk_spectra derives from it.
MAX_PRIME_TABLE_LIMIT = 300_000_000
MAX_SPF_SIEVE_LIMIT = 200_000_000
# leading spectrum entries per value that bulk_spectra and
# bulk_spectra_trial return by default
TOP_K = 3
# entries per segment of the spf sieve (1 MiB of int32)
_SIEVE_BLOCK = 1 << 18
# values per block of the spectrum fold, and arguments per window of the
# polynomial sieve: bounds its logs/idx/rem/entry arrays and the sieve's
# (n, p) pairs, some 100 B per value of a block.  _from_the_top sorts a
# block's rows as uint16 keys.
MEMBER_BLOCK = 1 << 16
assert MEMBER_BLOCK <= 1 << 16
# (live value, table prime) pairs per chunk of the trial division
_TRIAL_CELLS = 1 << 20


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over the odd numbers up to limit (inclusive)."""
    if limit < 2:
        raise ValidationError(f"prime table limit must be >= 2, got {limit}")
    if limit > MAX_PRIME_TABLE_LIMIT:
        raise ResourceBudgetError(
            f"prime table limit {limit} exceeds budget {MAX_PRIME_TABLE_LIMIT}"
        )
    # odd[i]: whether 2i + 1 is prime, with i = 0 standing for the prime 2
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            odd[2 * i * (i + 1) :: 2 * i + 1] = False  # from (2i + 1)**2 on
    primes = 2 * np.flatnonzero(odd).astype(np.int64) + 1
    primes[0] = 2
    return PrimeTable(limit=limit, primes=primes)


def _table_for(vmax: int) -> PrimeTable:
    """The primes that factor every value up to vmax."""
    return build_prime_table(max(math.isqrt(vmax) + 1, 3))


def smallest_factor_sieve(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 0 <= n <= limit (spf[1] = 1).

    int32: MAX_SPF_SIEVE_LIMIT < 2**31 bounds every entry.  A segmented
    sieve (Bays & Hudson, BIT 17, 1977): each segment of _SIEVE_BLOCK
    entries starts as n itself, which is final for primes and 1, then
    takes 2 on its even entries and, for each odd prime p <= sqrt(limit)
    from build_prime_table, largest first, p on its odd multiples from
    p*p on, by plain strided writes.  A composite n >= p*p for its
    smallest prime p, so p is the last prime written there; no entry is
    read back and no mask covers the whole range.
    """
    if limit < 2:
        raise ValidationError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SPF_SIEVE_LIMIT:
        raise ResourceBudgetError(
            f"spf sieve limit {limit} exceeds budget {MAX_SPF_SIEVE_LIMIT}"
        )
    primes = build_prime_table(max(math.isqrt(limit), 2)).primes[1:]
    squares = primes * primes
    primes = primes.tolist()
    spf = np.empty(limit + 1, dtype=np.int32)
    ramp = np.arange(min(_SIEVE_BLOCK, limit + 1), dtype=np.int32)
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        seg = spf[lo:hi]
        np.add(ramp[: hi - lo], lo, out=seg)  # n itself, final for primes
        seg[::2] = 2  # lo is even
        # the odd multiples n >= p*p of each odd prime p with p*p < hi,
        # largest p first, so that the smallest prime factor is written last
        for p in reversed(primes[: int(np.searchsorted(squares, hi))]):
            start = max(p * p, lo + (p - lo) % (2 * p))
            seg[start - lo :: 2 * p] = p
    spf[0] = 0
    return spf


def is_dense(values: np.ndarray) -> bool:
    """Whether arrays indexed by value over [0, max(values)] suit the set.

    True when the values fill at least 1/64 of that range and the range
    fits an spf sieve.  Such a set is factored through the spf sieve; a
    sparser or larger set, unless it holds polynomial values, by trial
    division.
    """
    maxval = int(values.max(initial=0))
    return values.size >= maxval // 64 and maxval <= MAX_SPF_SIEVE_LIMIT


def prime_powers(values):
    """Batches (idx, p, e), int64, with p**e || values[idx]: every prime
    power of every value >= 2 once, at most one per value in a batch, each
    value's with p ascending.  The trial table is built, and so checked
    against its budget, before values of any size are cast to int64."""
    values = np.asarray(values)
    vmax = int(values.max(initial=0))
    if is_dense(values):
        return _spf_prime_powers(values, smallest_factor_sieve(max(vmax, 2)))
    table = _table_for(vmax)
    return _trial_prime_powers(values.astype(np.int64), table)


def _divide_out(rem: np.ndarray, p: np.ndarray) -> np.ndarray:
    """e with p**e || rem elementwise, for primes p | rem; rem /= p**e in place."""
    e, sel = np.zeros_like(p), np.arange(p.size)
    while sel.size:
        rem[sel] //= p[sel]
        e[sel] += 1
        sel = sel[rem[sel] % p[sel] == 0]
    return e


def _spf_prime_powers(values: np.ndarray, spf: np.ndarray):
    """prime_powers read from an spf sieve covering the values."""
    idx = np.flatnonzero(values > 1)
    rem = values[idx].astype(np.int64)
    while idx.size:
        p = spf[rem].astype(np.int64)
        yield idx, p, _divide_out(rem, p)
        alive = rem > 1
        idx, rem = idx[alive], rem[alive]


def _trial_prime_powers(values: np.ndarray, table: PrimeTable):
    """prime_powers by trial division, for int64 values up to table.limit**2:
    each chunk tests the live cofactors against the next table primes,
    about _TRIAL_CELLS pairs and none past sqrt(largest cofactor)."""
    primes = table.primes
    idx = np.flatnonzero(values > 1)
    rem, lo = values[idx], 0
    while idx.size:
        # no factor below primes[lo]: prime below its square, or past the table
        done = rem < (primes[lo] ** 2 if lo < primes.size else table.limit**2 + 1)
        if done.any():
            yield idx[done], rem[done], np.ones_like(rem[done])
            idx, rem = idx[~done], rem[~done]
        big = int(rem.max(initial=0))
        top = np.searchsorted(primes, math.isqrt(big), side="right")
        hi = min(lo + _TRIAL_CELLS // max(idx.size, 1) + 1, top)
        # uint32 divides faster than int64; hits come row-major, so p ascends per value
        cof = rem.astype(np.uint32 if big < 1 << 32 else np.int64)
        hit = np.flatnonzero(cof[:, None] % primes[lo:hi].astype(cof.dtype) == 0)
        row, p = hit // (hi - lo), primes[lo + hit % (hi - lo)]
        e = _divide_out(rem[row], p)
        rank = np.arange(row.size) - np.searchsorted(row, row)
        for r in range(int(rank.max(initial=-1)) + 1):
            at = rank == r
            rem[row[at]] //= p[at] ** e[at]
            yield idx[row[at]], p[at], e[at]
        alive = rem > 1
        idx, rem = idx[alive], rem[alive]
        lo = hi


def spectra_blocks(values, k: int, floor: float | None):
    """The spectra of a value set as a block fold (see _fold_blocks):
    through the P+ table of one spf sieve for a dense set (is_dense), else
    by trial division against the primes up to sqrt(max), block by block."""
    values = np.asarray(values)
    vmax = int(values.max(initial=0))
    if is_dense(values):
        values = _checked_values(values, vmax, "spf sieve")
        lpf = _largest_factor_table(smallest_factor_sieve(max(vmax, 2)))
        return _fold_blocks(values, lambda rows: _lpf_peel(values[rows], lpf), k, floor)
    table = _table_for(vmax)
    values = _checked_values(values, table.limit * table.limit, f"prime table limit {table.limit}")
    return _fold_blocks(values, lambda rows: _trial_peel(values[rows], table), k, floor)


def _largest_factor_table(spf: np.ndarray) -> np.ndarray:
    """P+(n) for 0 <= n < len(spf), with P+(1) = 1, written over an spf
    sieve in place and returned.

    One vectorized pass per chunk of at most _SIEVE_BLOCK entries within
    a range [2**k, 2**(k+1)): there the quotient q = n // spf[n] is at most
    n/2, below the chunk, so P+(q) is already final, and
    P+(n) = max(spf[n], P+(q)) (P+(1) = 1 covers prime n).
    """
    lo = 4
    while lo < len(spf):
        hi = min(2 * lo, lo + _SIEVE_BLOCK, len(spf))
        s = spf[lo:hi]
        q = np.arange(lo, hi, dtype=spf.dtype) // s
        np.maximum(s, spf[q], out=s)
        lo = hi
    return spf


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


def _fold_spectra(values, peel, k: int, floor: float | None):
    """Normalized spectra of values from a peel.

    ``peel`` is (rows, state, step): ``rows`` are the positions of the
    values > 1, ascending, and ``state`` the peel's per-row arrays;
    ``step(j, state)`` gives, for each row still in play, the (j+1)-th
    largest prime factor p of its value, with multiplicity, and whether
    the value has another.  The fold holds the rows with their state and
    log(u).  A row leaves once its value has no next prime or the fold
    needs none: the fold needs a value's next entry while j + 1 < k (a
    top-k column) or while its entry is >= floor (entries descend, so the
    first entry below the floor retires the value).  The rows that leave
    in a step are dropped from every array at once, so each step is given
    exactly the rows that still need an entry.

    Returns (top, entry_idx, entry_val): ``top`` (n, k) holds the k
    largest entries log(p)/log(u) per value, which are the first k
    batches, zero padded; entry_idx, entry_val are the ragged list of
    every entry >= floor with the int32 index of its value, batch by batch
    and in ascending index within a batch.  They are empty when floor is
    None, and floor = 0.0 keeps complete spectra.  u = 1 gets the single
    entry 1 (the log 1 / log 1 convention), last.
    """
    rows, state, step = peel
    top = np.zeros((values.size, k), dtype=np.float64)
    # with no value 1, the rows are the whole block until the first take
    whole = rows.size == values.size
    one = np.zeros(0, dtype=np.int32) if whole else np.flatnonzero(values == 1).astype(np.int32)
    logs = (values if whole else values[rows]).astype(np.float64)
    np.log(logs, out=logs)
    out_idx, out_val = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.float64)]
    for j in itertools.count():
        if not rows.size:
            break
        p, more = step(j, state)
        entry = p.astype(np.float64)
        np.log(entry, out=entry)
        entry /= logs
        if j < k:
            if whole:
                top[:, j] = entry
            else:
                top[rows, j] = entry
        if floor is not None:
            keep = entry >= floor
            at = np.flatnonzero(keep)
            out_idx.append(rows.take(at))
            out_val.append(entry.take(at))
        if j + 1 >= k:
            if floor is None:
                break
            more &= keep
        if not more.all():
            at = np.flatnonzero(more)
            rows, logs = rows.take(at), logs.take(at)
            state = [a.take(at) for a in state]
            whole = False
    if k:
        top[one, 0] = 1.0
    if floor is not None:
        out_idx.append(one)
        out_val.append(np.ones(one.size))
    return top, np.concatenate(out_idx), np.concatenate(out_val)


def _fold_blocks(values, peel, k: int, floor: float | None, key=None):
    """The spectrum fold over blocks of at most MEMBER_BLOCK values, the
    block of values[rows] peeled by ``peel(rows)``.  With ``key``, distinct
    integers aligned with values, a block also keeps to one window of
    key // MEMBER_BLOCK: it ends where that window changes.

    Yields (rows, top, entry_idx, entry_val) per block, in order: ``rows``
    is the block's slice of values, and top, entry_idx, entry_val are its
    top-k columns and entries as _fold_spectra gives them, indexed within
    the block.
    """
    lo = 0
    while lo < values.size:
        hi = min(lo + MEMBER_BLOCK, values.size)
        if key is not None:
            # the first value in another window; never the block's first
            w = key[lo:hi] // MEMBER_BLOCK
            hi = lo + (int(np.argmax(w != w[0])) or w.size)
        rows = slice(lo, hi)
        yield rows, *_fold_spectra(values[rows], peel(rows), k, floor)
        lo = hi


def _lpf_peel(values: np.ndarray, lpf: np.ndarray):
    """The peel of values, largest prime first, from a P+ table covering
    them: each step reads p = P+(rem) and divides it out of rem."""

    def step(j, state):
        (rem,) = state
        p = lpf.take(rem)
        # p | rem < 2**31, so the float64 quotient is exact
        np.copyto(rem, rem / p, casting="unsafe")
        return p, rem > 1

    rows = np.flatnonzero(values > 1).astype(np.int32)
    rem = values if rows.size == values.size else values[rows]
    return rows, [rem.astype(np.int32)], step


def _trial_peel(values: np.ndarray, table: PrimeTable):
    """The peel of values by prime_powers' trial division, regrouped from
    the top."""
    return _from_the_top(values.size, _trial_prime_powers(values, table))


def _concat_fold(values, peel, k: int, floor: float | None):
    """(entry_idx, entry_val, top) of the whole block fold, in block order,
    with entry_idx the int32 index of each entry's value in the whole set."""
    top = np.empty((values.size, k), dtype=np.float64)
    idx, val = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.float64)]
    for rows, t, i, v in _fold_blocks(values, peel, k, floor):
        top[rows] = t
        i += rows.start
        idx.append(i)
        val.append(v)
    return np.concatenate(idx), np.concatenate(val), top


def bulk_spectra(values, spf: np.ndarray, k: int = TOP_K, floor: float | None = 0.0):
    """Normalized spectra for a dense set of values covered by an spf sieve.

    Peels the largest prime factor first through a P+ table derived from
    spf, and stops each value once the fold needs no more of it (after k
    primes, or at its first entry below floor).  Returns (entry_idx,
    entry_val, top): ``top`` holds the k largest entries per value, zero
    padded, and entry_idx/entry_val every entry >= floor (none when floor
    is None) in block order, as described in _fold_spectra.
    """
    values = _checked_values(values, len(spf) - 1, "spf sieve")
    lpf = _largest_factor_table(spf[: int(values.max(initial=1)) + 1].copy())
    return _concat_fold(values, lambda rows: _lpf_peel(values[rows], lpf), k, floor)


def bulk_spectra_trial(
    values, table: PrimeTable, k: int = TOP_K, floor: float | None = 0.0
):
    """Normalized spectra by prime_powers' trial division (sparse/large values).

    Valid for values up to table.limit**2; each value's final cofactor
    beyond the table is prime by the trial-division contract.  Every
    prime of a block is found, smallest first, then regrouped by rank
    from the top; the regroup stops each value once the fold needs no
    more of it.  Returns (entry_idx, entry_val, top) as bulk_spectra does.
    """
    values = _checked_values(
        values, table.limit * table.limit, f"prime table limit {table.limit}"
    )
    return _concat_fold(values, lambda rows: _trial_peel(values[rows], table), k, floor)


def sieve_blocks(values, args, table: PrimeTable, roots, k: int, floor: float | None):
    """The block fold of polynomial values values[i] = F(args[i]) (see
    _fold_blocks), each block by a sieve over its own arguments n.

    A block is a run of values whose arguments share one window
    [w * MEMBER_BLOCK, (w + 1) * MEMBER_BLOCK) of n (the key of
    _fold_blocks), so its sieve range, [min, max] of its arguments, is at
    most MEMBER_BLOCK wide; together the blocks sieve the argument range
    once.  The values ascend, so the arguments >= PolyRange.lo make one
    run per window; the few below n0 (PolyRange.small), which need not
    ascend, may split theirs.

    ``roots`` = (h, r) holds the roots of F modulo each of table.primes,
    as arith.roots_mod_primes gives them: p divides F(n) exactly when n is
    in a root class mod p (every n when h = p).  A block takes, for every
    prime and root class, its n in the block's range, and divides p out of
    F(n) repeatedly, which covers prime powers with no lift.  A cofactor
    > 1 left then has no prime factor <= table.limit >= sqrt(F(n)), so it
    is prime.  All primes of F(n) arrive in n's own block, so each block
    regroups (_from_the_top) and folds alone.  Valid for values up to
    table.limit**2, with distinct arguments n >= 1.
    """
    values = _checked_values(
        values, table.limit * table.limit, f"prime table limit {table.limit}"
    )
    h, r = roots
    every = np.flatnonzero(h == table.primes)
    some = np.flatnonzero((h > 0) & (h < table.primes))
    # the classes n = start mod step, ordered by p so that each n meets its
    # primes in ascending order
    ones = np.ones(every.size, dtype=np.int64)
    cls_p = np.concatenate([np.repeat(table.primes[some], h[some]), table.primes[every]])
    cls_start = np.concatenate([r[some][r[some] >= 0], 0 * ones])
    cls_step = np.concatenate([np.repeat(table.primes[some], h[some]), ones])
    order = np.argsort(cls_p, kind="stable")
    cls_p, cls_start, cls_step = cls_p[order], cls_start[order], cls_step[order]

    def peel(rows):
        # fn[n - lo] = F(n) and pos[n - lo] its row, over the block's range
        n = args[rows]
        lo = int(n.min())
        size = int(n.max()) - lo + 1
        fn = np.ones(size, dtype=np.int64)
        fn[n - lo] = values[rows]
        pos = np.zeros(size, dtype=np.int32)
        pos[n - lo] = np.arange(n.size, dtype=np.int32)
        # the classes that meet the range, each from its first n there
        first = (cls_start - lo) % cls_step
        meet = np.flatnonzero(first < size)
        first, step = first[meet], cls_step[meet]
        cnt = (size - 1 - first) // step + 1
        j = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        at = np.repeat(first, cnt) + j * np.repeat(step, cnt)
        p = np.repeat(cls_p[meet], cnt)
        keep = fn[at] > 1  # member arguments only
        at, p = at[keep], p[keep]
        # every F(n) in a root class is divisible by p at least once
        e = _divide_out(fn[at], p)
        div = np.ones(size, dtype=np.int64)
        np.multiply.at(div, at, p**e)
        cof = fn // div
        left = np.flatnonzero(cof > 1)
        return _from_the_top(n.size, [(pos[at], p, e), (pos[left], cof[left], np.ones_like(left))])

    return _fold_blocks(values, peel, k, floor, key=args)


def _from_the_top(n: int, ascending):
    """A peel, largest prime first, from a stream of (idx, p, e) batches
    that gives every prime power p**e || value of one block's n values,
    each value's in ascending order: step j reads each row's (j+1)-th
    largest prime."""
    batches = list(ascending)
    if not batches:
        return np.zeros(0, dtype=np.int32), [], None
    idx = np.concatenate([np.repeat(i, e) for i, _, e in batches])
    p = np.concatenate([np.repeat(q, e) for _, q, e in batches])
    # a stable sort by value keeps each value's primes ascending, so the
    # (j+1)-th largest prime of a value is j places before the end of its
    # run; numpy sorts uint16 keys, the rows of a block, by radix
    order = np.argsort(idx.astype(np.uint16), kind="stable")
    p = p[order]
    omega = np.bincount(idx, minlength=n)
    rows = np.flatnonzero(omega).astype(np.int32)

    def step(j, state):
        last, count = state
        # the fold steps only rows with a (j+1)-th prime, so last - j stays
        # in the row's run
        return p.take(last - j), count > j + 1

    return rows, [np.cumsum(omega)[rows] - 1, omega[rows]], step
