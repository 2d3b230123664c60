"""Empirical estimators on arithmetic samples.

Each member statistic takes (spec, x, ...) and reads only what it needs
of the members up to x: tail frequencies of the largest prime factor,
joint CDFs of the leading entries and correlation sums over distinct
index tuples reduce the block stream of the members' normalized
prime-factor spectra (``_spectrum_blocks``), so no whole-set spectrum
array is held; repeated-factor frequencies and sieve survivor counts
read the members' divisibility marks alone.  Beside them sit the
level-of-distribution error sums and a one-sample Kolmogorov-Smirnov
distance, which reads a SampleSet: the members' leading entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pdlab import arith, dickman, factor, sequences
from pdlab.boxes import BoxFunction, check_tuple_budget, tuple_sum_per_item
from pdlab.errors import ResourceBudgetError, ValidationError
from pdlab.report import Estimate, joint_cdf_hits, joint_cdf_thresholds, moments
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
    """The leading spectrum entry of each member of a sequence up to x, in
    member order, as the one column of ``top`` (the u = 1 member gets 1),
    which ks_distance reads."""

    top: np.ndarray

    @property
    def n(self) -> int:
        return len(self.top)


def _members(spec: SequenceSpec, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, index): the members up to x, ascending, and what the
    divisibility marks read of each (``sequences.divisible_by_any``): its
    argument n for polynomial values, else u itself."""
    if spec.kind == "poly":
        index, u = sequences.poly_arguments(spec, x)
    else:
        u = index = sequences.members(spec, x)
    if u.size == 0:
        raise ValidationError(f"sequence has no members up to x={x}")
    return u, index


def _spectrum_blocks(spec: SequenceSpec, x: int, k: int, floor: float | None):
    """(n, blocks): the number of members up to x and the one block driver
    over them, which yields (rows, top, entry_idx, entry_val) per block of
    members, in order, as factor's block folds give them.

    Polynomial values are factored by the sieve over their arguments
    (``factor.sieve_blocks``, each block over its own window of
    arguments), with the primes up to the root of the largest member,
    sized before any member is enumerated; any other set by
    ``factor.spectra_blocks``, which chooses its own source.
    """
    if spec.kind != "poly":
        u, _ = _members(spec, x)
        return u.size, factor.spectra_blocks(u, k, floor)
    table = factor._table_for(sequences.poly_range(spec, x).largest)
    u, index = _members(spec, x)
    roots = arith.roots_mod_primes(spec.coeffs, table.primes)
    return u.size, factor.sieve_blocks(u, index, table, roots, k, floor)


def build_sample_set(spec: SequenceSpec, x: int) -> SampleSet:
    """Enumerate the members of the sequence up to x and their leading
    entries.  The factor peel stops each member after its largest prime,
    so a build never computes smaller entries."""
    n, blocks = _spectrum_blocks(spec, x, 1, None)
    top = np.empty((n, 1), dtype=np.float64)
    for rows, t, _, _ in blocks:
        top[rows] = t
    return SampleSet(top=top)


def empirical_corr(spec: SequenceSpec, x: int, eta: BoxFunction) -> Estimate:
    """Average over members up to x of the distinct-index tuple sum of eta
    at the normalized log-prime coordinates (multiplicity via distinct
    indices).

    The spectra are folded block by block down to eta's support bound
    eta.alpha, and each block's tuple sums fill its part of one per-member
    array, so no entry list of the whole set is held.
    """
    check_tuple_budget(eta)
    n, blocks = _spectrum_blocks(spec, x, 0, eta.alpha)
    per = np.empty(n, dtype=np.float64)
    for rows, _, idx, val in blocks:
        per[rows] = tuple_sum_per_item(idx, val, rows.stop - rows.start, eta)
    return Estimate.mean([moments(per)])


def empirical_joint_cdf(spec: SequenceSpec, x: int, c) -> Estimate:
    """Frequency of {entry_1 <= c_1, ..., entry_k <= c_k} over members up to x."""
    c = joint_cdf_thresholds(c)
    n, blocks = _spectrum_blocks(spec, x, len(c), None)
    return Estimate.frequency(sum(joint_cdf_hits(top, c) for _, top, _, _ in blocks), n)


def tail_frequency(spec: SequenceSpec, x: int, eps: float) -> Estimate:
    """Frequency over members up to x of P+(u) >= u**(1-eps), i.e. leading
    entry >= 1 - eps.

    The u = 1 member has leading entry 1 by convention and therefore
    counts for every eps.
    """
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    n, blocks = _spectrum_blocks(spec, x, 1, None)
    hits = sum(int(np.count_nonzero(top[:, 0] >= 1.0 - eps)) for _, top, _, _ in blocks)
    return Estimate.frequency(hits, n)


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


def repeated_factor_frequency(spec: SequenceSpec, x: int, alpha: float, c: float) -> Estimate:
    """Frequency of members up to x with a repeated prime factor in
    [x**alpha, x**c]."""
    if not 0 < alpha < c <= 1:
        raise ValidationError(f"need 0 < alpha < c <= 1, got alpha={alpha}, c={c}")
    u, index = _members(spec, x)
    lo = x**alpha
    hi = min(x**c, math.sqrt(x))  # a repeated factor above sqrt(x) is impossible
    if lo > hi:
        return Estimate.frequency(0, u.size)
    table = factor.build_prime_table(int(math.floor(hi)) + 1)
    window = table.primes[(table.primes >= lo) & (table.primes <= hi)]
    hit = sequences.divisible_by_any(spec, index, window, 2)
    return Estimate.frequency(int(np.count_nonzero(hit)), u.size)


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
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    if delta0 is None:
        delta0 = (1.0 - eps) / 2.0
    # no member u <= x has a prime factor above x, so the window ends by
    # x; this also keeps x**delta0 from overflowing
    if not delta0 <= 1:
        raise ValidationError(f"delta0 must be at most 1, got {delta0}")
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
    u, index = _members(spec, x)
    hit = sequences.divisible_by_any(spec, index, window, 1)
    survivors = u.size - int(np.count_nonzero(hit))
    # math.prod multiplies in window order; np.prod may regroup the factors
    v = math.prod((1.0 - g).tolist())
    return SurvivorResult(
        survivors=survivors,
        n_total=u.size,
        v_product=v,
        ratio=survivors / (v * u.size),
        window=(lo, hi),
        n_window_primes=int(window.size),
    )
