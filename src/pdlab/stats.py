"""Empirical estimators on arithmetic samples.

A SampleSet holds the members of a sequence up to x and the k leading
entries of their normalized prime-factor spectra, or none.  The
estimators are pure folds over those arrays: correlation sums over
distinct index tuples, joint CDFs of the leading entries, tail
frequencies of the largest prime factor, level-of-distribution error
sums, repeated-factor frequencies, sieve survivor counts, and a
one-sample Kolmogorov-Smirnov distance.  The correlation sums alone read
only the members: they fold the spectra again block by block
(``_spectrum_blocks``), so the whole set's entries are never held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pdlab import arith, dickman, factor, sequences
from pdlab.boxes import BoxFunction, check_tuple_budget, tuple_sum_per_item
from pdlab.errors import ResourceBudgetError, ValidationError
from pdlab.factor import TOP_K
from pdlab.report import Estimate, joint_cdf_hits, moments
from pdlab.sequences import SequenceSpec

# ks_distance's certified sweep: values of the sorted column per cell,
# values per reference-cdf call, and the margin by which the reference may
# fall between two points and still count as non-decreasing.  Each panel
# of the default rho table is a Legendre series of degree 39 whose
# coefficients sum to at most 1 in absolute value, summed by Clenshaw's
# recurrence: a value is within some 2 * 40 * 2**-53 < 1e-14 of the exact
# series, and 1/c and the panel's affine map are monotone in c.  Adjacent
# panels meet at the integer breakpoints to the fit's accuracy, below
# 1e-14 too (2.3e-15 was the largest drop seen across adjacent floats
# there).  A skipped cell's terms exceed its computed bound by at most that
# drop plus two roundings of a difference in [-1, 1], 2**-53 each; 1e-10
# covers both with four orders to spare, and the cells it adds to the
# full evaluation are few.
KS_CELL = 1 << 10
KS_CHUNK = 1 << 18
KS_MARGIN = 1e-10


@dataclass(frozen=True)
class SampleSet:
    """What the estimators read of a sequence's members up to x.

    ``index`` is what the divisibility marks read of each member
    (``sequences.divisible_by_any``): its argument n for polynomial
    values, else ``u`` itself.
    ``top`` holds the k largest spectrum entries per member (zero padded;
    the u = 1 member gets the single entry 1); k = 0 gives no columns.
    """

    spec: SequenceSpec
    x: int
    u: np.ndarray
    index: np.ndarray
    top: np.ndarray

    @property
    def n(self) -> int:
        return len(self.u)


def _sieve_table(spec: SequenceSpec, x: int) -> factor.PrimeTable | None:
    """The primes that the sieve over n reads for polynomial values up to
    x, sized from the largest member (so refused before enumeration);
    None for any other kind."""
    if spec.kind != "poly":
        return None
    largest = sequences.poly_range(spec, x).largest
    return factor.build_prime_table(max(math.isqrt(largest) + 1, 3))


def _spectrum_blocks(spec, u, index, k, floor, top, table):
    """The one block driver over members u (with their index): yields
    (rows, entry_idx, entry_val) per block of members, in order, as
    factor's block folds give them, and writes the k leading entries of
    each member into its row of top.

    Polynomial values are factored by the sieve over their arguments with
    ``table`` (``factor.sieve_blocks``, each block over its own window of
    arguments); any other set by ``factor.spectra_blocks``, which chooses
    its own source.
    """
    if spec.kind == "poly":
        roots = arith.roots_mod_primes(spec.coeffs, table.primes)
        return factor.sieve_blocks(u, index, table, roots, k, floor, top)
    return factor.spectra_blocks(u, k, floor, top)


def build_sample_set(spec: SequenceSpec, x: int, k: int = TOP_K) -> SampleSet:
    """Enumerate the members of the sequence up to x and their k leading entries.

    ``k`` (0..TOP_K) is the number of leading entries per member in
    ``top``.  The factor peel stops each member after its k-th prime, so
    a build never computes smaller entries.  With k = 0 nothing is
    factored: the set holds only the members and their index, which is
    all ``repeated_factor_frequency``, ``sieve_survivor_experiment`` and
    ``empirical_corr`` read.
    """
    if not 0 <= k <= TOP_K:
        raise ValidationError(
            f"k must be in [0, {TOP_K}] (at most {TOP_K} joint thresholds), got {k}"
        )
    table = _sieve_table(spec, x) if k else None
    if spec.kind == "poly":
        args, mem = sequences.poly_arguments(spec, x)
    else:
        mem = args = sequences.members(spec, x)
    if mem.size == 0:
        raise ValidationError(f"sequence has no members up to x={x}")
    top = np.zeros((mem.size, k), dtype=np.float64)
    if k:
        for _ in _spectrum_blocks(spec, mem, args, k, None, top, table):
            pass  # each block writes its rows of top
    return SampleSet(spec=spec, x=x, u=mem, index=args, top=top)


def empirical_corr(s: SampleSet, eta: BoxFunction) -> Estimate:
    """Average over members of the distinct-index tuple sum of eta at the
    normalized log-prime coordinates (multiplicity via distinct indices).

    Reads only the members of s, whatever else it was built with: their
    spectra are folded again, block by block, down to eta's support bound
    eta.alpha, and each block's tuple sums fill its part of one per-member
    array, so no entry list of the whole set is held.
    """
    check_tuple_budget(eta)
    top = np.zeros((s.n, 0), dtype=np.float64)
    blocks = _spectrum_blocks(s.spec, s.u, s.index, 0, eta.alpha, top, _sieve_table(s.spec, s.x))
    per = np.empty(s.n, dtype=np.float64)
    for rows, idx, val in blocks:
        per[rows] = tuple_sum_per_item(idx, val, rows.stop - rows.start, eta)
    return Estimate.mean([moments(per)])


def _need_top(s: SampleSet, k: int) -> None:
    if s.top.shape[1] < k:
        raise ValidationError(
            f"need {k} top columns, the sample set was built with {s.top.shape[1]}"
        )


def empirical_joint_cdf(s: SampleSet, c) -> Estimate:
    """Frequency of {entry_1 <= c_1, ..., entry_k <= c_k} over members."""
    c = [float(v) for v in c]
    if not c or any(not 0 < v <= 1 for v in c):
        raise ValidationError("thresholds must be a nonempty vector in (0, 1]")
    _need_top(s, len(c))
    return Estimate.frequency(joint_cdf_hits(s.top, c), s.n)


def tail_frequency(s: SampleSet, eps: float) -> Estimate:
    """Frequency of P+(u) >= u**(1-eps), i.e. leading entry >= 1 - eps.

    The u = 1 member has leading entry 1 by convention and therefore
    counts for every eps.
    """
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    _need_top(s, 1)
    hit = s.top[:, 0] >= 1.0 - eps
    return Estimate.frequency(int(np.count_nonzero(hit)), s.n)


def ks_distance(values: np.ndarray, ref_cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a callable CDF.

    A certified sweep over the sorted sample: the column is cut into
    cells of KS_CELL values, and ref_cdf is evaluated only at each cell's
    first and last value.  A cdf is non-decreasing, so a cell's terms
    (i+1)/n - F(v_i) and F(v_i) - i/n are bounded by grid_last - F(first)
    and F(last) - (grid_first - 1/n).  Only the cells whose bound comes
    within KS_MARGIN of the running max are evaluated in full, KS_CHUNK
    values per ref_cdf call, with the same expressions as a full sweep,
    so the result is the full sweep's float whenever ref_cdf is
    non-decreasing to within KS_MARGIN (as dickman_reference_cdf is).  If
    the values at the cell ends are not, every cell is evaluated.

    Against the continuous dickman_reference_cdf, the leading entries of an
    exhaustive sample up to x can come no closer than the atom
    (pi(x) + 1)/x that the primes and u = 1 put at L1 = 1.  From x = 10^4
    to 10^7 the distance equals that atom, so it says nothing about the
    continuous part of the law; the sweep then evaluates the one cell
    where the atom starts.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("ks_distance requires a nonempty sample")
    v = np.sort(values)
    n = len(v)
    lo = np.arange(0, n, KS_CELL)
    hi = np.minimum(lo + KS_CELL, n)
    ends = np.stack([lo, hi - 1], axis=1).ravel()
    ref = np.asarray(ref_cdf(v[ends]), dtype=np.float64)
    dist = _ks_terms(ends, ref, n)
    first, last = ref[0::2], ref[1::2]
    bound = np.maximum(hi / n - first, last - ((lo + 1) / n - 1.0 / n))
    if np.any(np.diff(ref) < -KS_MARGIN):
        bound[:] = np.inf
    # cells by decreasing bound; each pass takes the next cells that can
    # still reach the running max
    order = np.argsort(-bound, kind="stable")
    per_call = max(KS_CHUNK // KS_CELL, 1)
    done = 0
    while done < order.size and bound[order[done]] >= dist - KS_MARGIN:
        cells = order[done : done + per_call]
        cells = cells[bound[cells] >= dist - KS_MARGIN]
        pos = np.concatenate([np.arange(lo[c], hi[c]) for c in cells])
        dist = max(dist, _ks_terms(pos, np.asarray(ref_cdf(v[pos]), dtype=np.float64), n))
        done += cells.size
    return dist


def _ks_terms(pos, ref, n: int) -> float:
    """The largest KS term at the sorted positions pos, given the
    reference cdf's values ref there."""
    grid = (pos + 1) / n
    return float(max(np.max(grid - ref), np.max(ref - (grid - 1.0 / n))))


def dickman_reference_cdf():
    """The limit CDF c -> rho(1/c) of the normalized largest prime factor.

    It is continuous and reaches 1 only at c = 1, where an exhaustive
    sample has the atom (pi(x) + 1)/x; see ks_distance.  As evaluated it
    is non-decreasing to within KS_MARGIN (see its comment), which the
    certified sweep of ks_distance relies on.
    """
    tab = dickman.default_table()

    def cdf(c):
        c = np.asarray(c, dtype=np.float64)
        out = np.zeros_like(c)
        out[c >= 1.0] = 1.0
        # below 1/u_max the reference mass is under 1e-28: call it zero
        mid = (c > 1.0 / tab.u_max) & (c < 1.0)
        out[mid] = tab.rho_vec(1.0 / c[mid])
        return out

    return cdf


def lod_error_sum(spec: SequenceSpec, x: int, c: float):
    """(sum_{d <= x**c} |N_d(x) - g(d) N(x)| / N(x), max_d |r_d|)."""
    if not 0 < c < 1:
        raise ValidationError(f"c must be in (0, 1), got {c}")
    dmax = int(math.floor(x**c))
    if dmax < 1:
        raise ValidationError(f"x**c = {x**c:.3f} admits no moduli")
    if dmax > factor.MAX_SPF_SIEVE_LIMIT:
        raise ResourceBudgetError(
            f"largest modulus {dmax} exceeds the spf sieve budget {factor.MAX_SPF_SIEVE_LIMIT}"
        )
    d = np.arange(1, dmax + 1, dtype=np.int64)
    n_total, nd = sequences.class_counts(spec, x, d)
    if n_total == 0:
        raise ValidationError(f"sequence has no members up to x={x}")
    if spec.kind == "uniform":
        gn = x / d.astype(np.float64)
    else:
        gn = arith._g_h_values(spec.g_function(), dmax)[0][1:] * n_total
    r = nd.astype(np.float64) - gn
    return float(np.sum(np.abs(r)) / n_total), float(np.max(np.abs(r)))


def repeated_factor_frequency(s: SampleSet, alpha: float, c: float) -> Estimate:
    """Frequency of members with a repeated prime factor in [x**alpha, x**c]."""
    if not 0 < alpha < c <= 1:
        raise ValidationError(f"need 0 < alpha < c <= 1, got alpha={alpha}, c={c}")
    lo = s.x**alpha
    hi = min(s.x**c, math.sqrt(s.x))  # a repeated factor above sqrt(x) is impossible
    if lo > hi:
        return Estimate.frequency(0, s.n)
    table = factor.build_prime_table(int(math.floor(hi)) + 1)
    window = table.primes[(table.primes >= lo) & (table.primes <= hi)]
    hit = sequences.divisible_by_any(s.spec, s.index, window, 2)
    return Estimate.frequency(int(np.count_nonzero(hit)), s.n)


@dataclass(frozen=True)
class SurvivorResult:
    survivors: int
    n_total: int
    v_product: float
    ratio: float
    window: tuple[float, float]
    n_window_primes: int


def sieve_survivor_experiment(
    spec: SequenceSpec, x: int, eps: float, z0: float = 2.0, delta0: float | None = None
) -> SurvivorResult:
    """Count members coprime to every prime strictly inside (x**eps, x**delta0)
    with p > z0, and compare with V = prod (1 - g(p)) over the window.

    Returns the direct survivor count, V, and survivors / (V * N(x)).
    """
    if delta0 is None:
        delta0 = (1.0 - eps) / 2.0
    lo, hi = x**eps, x**delta0
    table = factor.build_prime_table(max(int(math.floor(hi)) + 1, 3))
    window = table.primes[
        (table.primes > lo) & (table.primes < hi) & (table.primes > z0)
    ]
    if window.size == 0:
        raise ValidationError(
            f"empty sieving window: x={x}, eps={eps}, z0={z0}, delta0={delta0}"
        )
    g = arith._g_at_primes(spec.g_function(), window)
    full = window[g >= 1.0]
    if full.size:
        raise ValidationError(f"g({full[0]}) = 1 makes V = 0: raise z0 to at least {full[0]}")
    s = build_sample_set(spec, x, k=0)
    hit = sequences.divisible_by_any(spec, s.index, window, 1)
    survivors = s.n - int(np.count_nonzero(hit))
    # math.prod multiplies in window order; np.prod may regroup the factors
    v = math.prod((1.0 - g).tolist())
    return SurvivorResult(
        survivors=survivors,
        n_total=s.n,
        v_product=v,
        ratio=survivors / (v * s.n),
        window=(lo, hi),
        n_window_primes=int(window.size),
    )
