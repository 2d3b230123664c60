"""Empirical estimators on arithmetic samples, cross-checked by brute force."""

import itertools
import math

import numpy as np
import pytest
import sympy

import oracles
import scalar
from scalar_spectra import TOL, assert_fold_matches, scalar_spectra

from pdlab import arith, dickman, factor, pdprocess, sequences, stats
from pdlab.boxes import box, tuple_sum_per_item
from pdlab.errors import ValidationError
from pdlab.report import Estimate


def _choice(spec, x, size=None, seed=0):
    """(u, index) of a seeded uniform choice of size members up to x, in
    member order; all of them when size is None or there are no more."""
    u, index = stats._members(spec, x)
    if size is None or u.size <= size:
        return u, index
    rng = np.random.Generator(np.random.Philox(key=seed))
    sel = np.sort(rng.choice(u.size, size=size, replace=False))
    return u[sel], index[sel] if spec.kind == "poly" else u[sel]


def _fold(spec, x, u, index, k, floor):
    """(top, entry_idx, entry_val) of members u of the sequence up to x,
    from the block fold that stats._spectrum_blocks chooses for the
    sequence, run over u alone: the blocks concatenated in block order,
    each entry index offset by its block's start."""
    if spec.kind == "poly":
        table = factor._table_for(sequences.poly_range(spec, x).largest)
        roots = arith.roots_mod_primes(spec.coeffs, table.primes)
        blocks = factor.sieve_blocks(u, index, table, roots, k, floor)
    else:
        blocks = factor.spectra_blocks(u, k, floor)
    top, idx, val = [np.zeros((0, k))], [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    for rows, t, i, v in blocks:
        top.append(t)
        idx.append(i + rows.start)
        val.append(v)
    return np.concatenate(top), np.concatenate(idx), np.concatenate(val)


# the uniform integers up to 3000, as brute_spectra factors them
SMALL = (sequences.uniform_integers(), 3000)


@pytest.fixture(scope="module")
def brute_spectra():
    pc = oracles.PrimeCounts(60)
    return {u: list(scalar.spectrum(u, pc)) for u in range(1, 3001)}


def test_tail_frequency_matches_brute_force(brute_spectra):
    for eps in (0.1, 0.3, 0.5):
        want = sum(1 for e in brute_spectra.values() if e[0] >= 1 - eps) / 3000
        assert stats.tail_frequency(*SMALL, eps).value == pytest.approx(want)


def test_joint_cdf_matches_brute_force(brute_spectra):
    for c in ([0.5], [0.9, 0.5], [0.8, 0.5, 0.3]):
        want = (
            sum(
                1
                for e in brute_spectra.values()
                if all(
                    (e[j] if j < len(e) else 0.0) <= cj for j, cj in enumerate(c)
                )
            )
            / 3000
        )
        assert stats.empirical_joint_cdf(*SMALL, c).value == pytest.approx(want)


@pytest.mark.parametrize(
    "spec, x",
    [
        (sequences.uniform_integers(), 3000),
        (sequences.shifted_primes(1), 10**5),
        (sequences.polynomial_values([1, 0, 1]), 10**8),
    ],
    ids=["spf", "trial", "poly_sieve"],
)
def test_member_cdf_takes_more_than_top_k_thresholds(spec, x):
    # four thresholds, one more than factor.TOP_K, against the
    # scalar spectra; no entry lies within the scalar path's last-bit
    # difference of a threshold, so the count is exact
    c = [0.61, 0.37, 0.23, 0.11]
    u, _ = stats._members(spec, x)
    ref = scalar_spectra(u)
    lead = np.full((u.size, len(c)), -np.inf)
    width = min(len(c), ref.shape[1])
    lead[:, :width] = ref[:, :width]
    assert not np.any(np.abs(lead[:, :, None] - np.array(c)) < TOL)
    want = int(np.count_nonzero((lead <= np.array(c)).all(axis=1)))
    assert stats.empirical_joint_cdf(spec, x, c) == Estimate.frequency(want, u.size)


def test_corr_matches_brute_force(brute_spectra):
    eta = box((0.15, 0.25), (0.3, 0.4))
    want = (
        sum(
            sum(1 for v in e if 0.15 <= v <= 0.25) * sum(1 for v in e if 0.3 <= v <= 0.4)
            for e in brute_spectra.values()
        )
        / 3000
    )
    assert stats.empirical_corr(*SMALL, eta).value == pytest.approx(want)


def test_corr_k1_counts_large_factors(brute_spectra):
    # k = 1 with eta = 1[[alpha, 1]] is the mean number of prime factors
    # (with multiplicity) of size >= u**alpha
    alpha = 0.3
    want = sum(
        sum(1 for v in e if v >= alpha) for e in brute_spectra.values()
    ) / 3000
    got = stats.empirical_corr(*SMALL, box((alpha, 1.0))).value
    assert got == pytest.approx(want)


def test_tail_cdf_internal_consistency():
    # at eps = 0.1 no integer u <= 1e5 has leading entry exactly 0.9, so
    # the closed boundary conventions cannot double-count
    spec, x = sequences.uniform_integers(), 10**5
    assert not np.any(stats.build_sample_set(spec, x).top[:, 0] == 0.9)
    tail = stats.tail_frequency(spec, x, 0.1).value
    cdf = stats.empirical_joint_cdf(spec, x, [0.9]).value
    assert tail == pytest.approx(1.0 - cdf, abs=1e-15)


def test_u_equals_one_counts_in_every_tail():
    spec = sequences.uniform_integers()
    assert stats.build_sample_set(spec, 1).top[0, 0] == 1.0
    assert stats.tail_frequency(spec, 1, 0.05).value == 1.0


def test_floor_truncation_respected():
    spec, x = SMALL
    u, index = _choice(spec, x)
    assert (_fold(spec, x, u, index, 0, 0.2)[2] >= 0.2).all()
    # empirical_corr folds the members down to eta's support bound, which
    # leaves it the mean over the complete spectra
    _, idx, val = _fold(spec, x, u, index, 0, 0.0)
    for eta in (box((0.1, 0.3)), box((0.25, 0.5))):
        want = np.mean(tuple_sum_per_item(idx, val, u.size, eta))
        assert stats.empirical_corr(spec, x, eta).value == want


def test_sparse_trial_division_path():
    # polynomial values go through the sieve over n; a sparse subsample of
    # another kind forces the trial-division branch
    poly = sequences.polynomial_values([1, 0, 1])
    poly_u, poly_index = _choice(poly, 10**6)
    assert poly_u.size == 999  # n**2 + 1 <= 1e6 exactly for n <= 999
    sparse = sequences.shifted_primes(1)
    sparse_u, sparse_index = _choice(sparse, 10**6, 999, 2)
    assert not factor.is_dense(sparse_u)
    pc = oracles.PrimeCounts(1000)
    for spec, u, index in ((poly, poly_u, poly_index), (sparse, sparse_u, sparse_index)):
        _, entry_idx, entry_val = _fold(spec, 10**6, u, index, 0, 0.0)
        for i, v in enumerate(u[:50]):
            got = np.sort(entry_val[entry_idx == i])[::-1]
            assert np.allclose(got, scalar.spectrum(int(v), pc), atol=1e-12)


def test_ks_distance_self_test():
    ref = stats.dickman_reference_cdf()
    # draw exactly from the reference by inverting rho(1/c) on a fine grid
    grid_c = np.linspace(0.02, 1.0, 20001)
    cdf_vals = ref(grid_c)
    probs = np.linspace(1e-4, 1 - 1e-4, 4000)
    sample = np.interp(probs, cdf_vals, grid_c)
    assert stats.ks_distance(sample, ref) <= 2e-3
    # a reversed reference is maximally wrong
    assert stats.ks_distance(sample, lambda c: 1.0 - ref(np.asarray(c))) > 0.4


def test_ks_distance_chunks_agree(monkeypatch):
    ref = stats.dickman_reference_cdf()
    rng = np.random.Generator(np.random.Philox(key=23))
    sample = np.concatenate([rng.uniform(0.01, 1.0, 3000), np.ones(40)])
    v = np.sort(sample)
    r = ref(v)
    grid = np.arange(1, v.size + 1) / v.size
    want = max(np.max(grid - r), np.max(r - (grid - 1.0 / v.size)))
    assert stats.ks_distance(sample, ref) == want
    monkeypatch.setattr(stats, "KS_CHUNK", 7)
    assert stats.ks_distance(sample, ref) == want


def _full_ks(values, ref_cdf):
    """The full KS sweep that the certified one replaced: ref_cdf at every
    sorted value, one chunk of 2**18 values per call."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    dist = -np.inf
    for lo in range(0, n, 1 << 18):
        chunk = v[lo : lo + (1 << 18)]
        ref = np.asarray(ref_cdf(chunk), dtype=np.float64)
        grid = np.arange(lo + 1, lo + chunk.size + 1) / n
        dist = max(dist, np.max(grid - ref), np.max(ref - (grid - 1.0 / n)))
    return float(dist)


def _leading(spec, x, size=None, seed=0):
    u, index = _choice(spec, x, size, seed)
    return _fold(spec, x, u, index, 1, None)[0][:, 0]


def _pd_leading():
    rng = pdprocess._block_rng(7, 0)
    sample = pdprocess._topk_block(rng, 1 << 20, 1, pdprocess.TRUNCATION)[0][:, 0]
    # no atom, so the sup is in the continuous part, and at 2**20 values
    # some cells can be skipped and some cannot
    assert sample.max() < 1.0
    return sample


def _ties():
    rng = np.random.Generator(np.random.Philox(key=31))
    return np.concatenate([np.round(rng.uniform(0.05, 1.0, 5000), 2), np.ones(300)])


KS_SAMPLES = {
    **{f"uniform_1e{e}": lambda e=e: _leading(sequences.uniform_integers(), 10**e) for e in range(3, 7)},
    "thue_morse": lambda: _leading(sequences.thue_morse_zeros(), 10**5),
    "shifted_primes_subsample": lambda: _leading(
        sequences.shifted_primes(1), 10**6, size=20000, seed=3
    ),
    "pd": _pd_leading,
    "ties": _ties,
    "one_value": lambda: np.array([0.4]),
    "below_one_cell": lambda: np.linspace(0.1, 1.0, 100),
    "one_cell_and_one": lambda: np.random.Generator(np.random.Philox(key=5)).uniform(
        0.05, 1.0, stats.KS_CELL + 1
    ),
}


@pytest.mark.parametrize("name", list(KS_SAMPLES))
def test_ks_sweep_equals_the_full_sweep(name):
    sample = KS_SAMPLES[name]()
    ref = stats.dickman_reference_cdf()
    assert stats.ks_distance(sample, ref) == _full_ks(sample, ref)
    # a decreasing reference fails the check at the cell ends: every cell is swept
    reverse = lambda c: 1.0 - ref(c)  # noqa: E731
    assert stats.ks_distance(sample, reverse) == _full_ks(sample, reverse)


def test_ks_sweep_reads_few_points_of_an_exhaustive_set():
    sample = _leading(sequences.uniform_integers(), 10**6)
    ref = stats.dickman_reference_cdf()
    seen = []

    def spy(c):
        seen.append(np.size(c))
        return ref(c)

    assert stats.ks_distance(sample, spy) == _full_ks(sample, ref)
    # the cell ends, and the cell where the atom at L1 = 1 starts
    assert sum(seen) < 0.05 * sample.size


def test_dickman_reference_cdf_is_monotone_within_the_margin():
    # ks_distance skips a cell on the assumption that the reference cdf
    # falls by at most KS_MARGIN between two points; its comment derives
    # that from the Legendre evaluation's rounding
    ref = stats.dickman_reference_cdf()
    u_max = dickman.default_table().u_max
    c = np.linspace(1.0 / u_max, 1.0, 1_000_001)[1:]
    # and every run of adjacent floats around the panel breakpoints c = 1/m
    near = [1.0 / m + np.arange(-500, 500) * np.spacing(1.0 / m) for m in range(1, u_max + 1)]
    for grid in (c, *near):
        grid = grid[(grid > 1.0 / u_max) & (grid <= 1.0)]
        assert np.diff(ref(grid)).min() >= -stats.KS_MARGIN


def test_lod_uniform_closed_bound():
    for x in (10**4, 10**5):
        for c in (0.3, 0.5):
            err, max_r = stats.lod_error_sum(sequences.uniform_integers(), x, c)
            assert err <= x ** (c - 1.0)
            assert max_r < 1.0


@pytest.mark.parametrize(
    "spec, x",
    [
        (sequences.shifted_primes(1), 2000),
        (sequences.thue_morse_zeros(), 2000),
        # 316 members up to 10**5: sparse, so N_d comes from residues
        (sequences.polynomial_values([1, 0, 1]), 10**5),
    ],
    ids=["shifted_primes", "thue_morse", "x2p1"],
)
def test_lod_brute_force_small(spec, x):
    c = 0.4
    err, max_r = stats.lod_error_sum(spec, x, c)
    mem = sequences.members(spec, x)
    n = len(mem)
    total = 0.0
    worst = 0.0
    g = spec.g_function()
    pc = oracles.PrimeCounts(100)
    for d in range(1, int(x**c) + 1):
        nd = int(np.count_nonzero(mem % d == 0))
        r = nd - float(n) * float(scalar.g(g.kind, g.coeffs, d, pc))
        total += abs(r)
        worst = max(worst, abs(r))
    assert err == pytest.approx(total / n)
    assert max_r == pytest.approx(worst)


def test_repeated_factor_brute_force():
    alpha, c = 0.2, 0.45
    got = stats.repeated_factor_frequency(sequences.uniform_integers(), 20000, alpha, c).value
    lo, hi = 20000**alpha, 20000**c
    brute = 0
    for u in range(1, 20001):
        if any(
            lo <= p <= hi and e >= 2 for p, e in sympy.factorint(u).items()
        ):
            brute += 1
    assert got == pytest.approx(brute / 20000)


@pytest.mark.parametrize("max_members", [1000, 20000])  # sparse, then dense
def test_repeated_factor_on_subsample_brute_force(max_members):
    # members are values: p**2 must divide u, not the position of u; the
    # marks that repeated_factor_frequency counts, on a subsample
    x = 10**5
    spec = sequences.uniform_integers()
    u, index = _choice(spec, x, max_members, 4)
    lo, hi = x**0.1, x**0.4
    window = np.array(list(sympy.primerange(math.ceil(lo), math.floor(hi) + 1)))
    got = sequences.divisible_by_any(spec, index, window, 2)
    brute = [
        any(lo <= p <= hi and e >= 2 for p, e in sympy.factorint(v).items())
        for v in u.tolist()
    ]
    assert np.array_equal(got, brute)


def test_repeated_factor_above_sqrt_is_zero():
    assert stats.repeated_factor_frequency(sequences.uniform_integers(), 10**4, 0.6, 0.9).value == 0.0


def test_repeated_factor_bounded_by_prime_square_sum():
    alpha, c = 0.1, 0.4
    est = stats.repeated_factor_frequency(sequences.uniform_integers(), 10**6, alpha, c)
    from pdlab import factor

    x = 10**6
    hi = int(x**c)
    table = factor.build_prime_table(hi + 1)
    window = table.primes[(table.primes >= x**alpha) & (table.primes <= hi)]
    bound = 2.0 * float(np.sum(1.0 / window.astype(np.float64) ** 2))
    assert est.value <= bound


def test_sieve_survivors_uniform():
    res = stats.sieve_survivor_experiment(
        sequences.uniform_integers(), 10**6, eps=0.05, delta0=0.2
    )
    assert abs(res.ratio - 1.0) <= 0.10  # within 10% of the Mertens product
    assert res.survivors <= res.n_total


def test_sieve_single_prime_window():
    # a window holding exactly one prime checks a single factor of V
    spec = sequences.uniform_integers()
    x = 10**4
    # window (10**1.04, 10**1.108) = (10.96, 12.83) holds only the prime 11
    res1 = stats.sieve_survivor_experiment(spec, x, eps=0.26, z0=2.0, delta0=0.277)
    assert res1.n_window_primes == 1
    direct = sum(1 for u in range(1, x + 1) if u % 11 != 0)
    assert res1.survivors == direct
    assert res1.v_product == pytest.approx(1.0 - 1.0 / 11.0)


@pytest.mark.parametrize(
    "spec, x",
    [
        (sequences.shifted_primes(1), 10**5),
        (sequences.thue_morse_zeros(), 10**4),
        (sequences.polynomial_values([1, 0, 1]), 10**6),  # sparse
    ],
    ids=["shifted_primes", "thue_morse", "x2p1"],
)
def test_sieve_survivors_brute_force(spec, x):
    res = stats.sieve_survivor_experiment(spec, x, eps=0.1)
    lo, hi = x**0.1, x**0.45
    window = [p for p in sympy.primerange(3, int(hi) + 1) if lo < p < hi]
    assert res.n_window_primes == len(window)
    mem = sequences.members(spec, x).tolist()
    assert res.survivors == sum(all(m % p for p in window) for m in mem)
    v = 1.0
    g, pc = spec.g_function(), oracles.PrimeCounts(100)
    for p in window:
        v *= 1.0 - float(scalar.g(g.kind, g.coeffs, p, pc))
    assert res.v_product == v


def test_sieve_empty_window_raises():
    with pytest.raises(ValidationError, match="eps"):
        stats.sieve_survivor_experiment(
            sequences.uniform_integers(), 100, eps=0.45, delta0=0.46
        )


def test_sieve_shifted_primes_ratio_bounded():
    ratios = [
        stats.sieve_survivor_experiment(sequences.shifted_primes(1), x, eps=0.1).ratio
        for x in (10**5, 10**6)
    ]
    assert all(0.0 < r < 10.0 for r in ratios)


def test_empty_sequence_sample_raises():
    with pytest.raises(ValidationError):
        stats.build_sample_set(sequences.polynomial_values([7, 2]), 8)  # 2n+7 > 8 fails for n>=1? 9 > 8


SHAPED_CASES = {
    "uniform": (sequences.uniform_integers(), 10**5, None),
    "thue_morse": (sequences.thue_morse_zeros(), 10**5, None),
    "shifted_primes": (sequences.shifted_primes(1), 10**6, None),
    # sparse: the trial source
    "shifted_primes_far": (sequences.shifted_primes(-9 * 10**6), 10**7, None),
    "x2p1": (sequences.polynomial_values([1, 0, 1]), 10**9, None),  # sieve over n
    "subsample": (sequences.uniform_integers(), 10**6, 20000),  # seed 4
}


@pytest.fixture(scope="module", params=list(SHAPED_CASES))
def complete_build(request):
    spec, x, size = SHAPED_CASES[request.param]
    u, index = _choice(spec, x, size, 4)
    return request.param, (spec, x, u, index), _fold(spec, x, u, index, 3, 0.0)


def _member_multisets(idx, val):
    order = np.lexsort((val, idx))
    return idx[order], val[order]


def test_shaped_builds_equal_the_complete_build(complete_build):
    name, (spec, x, u, index), (full_top, full_idx, full_val) = complete_build
    dense = factor.is_dense(u)
    assert dense == (name not in ("shifted_primes_far", "x2p1"))
    for k in (1, 2, 3):
        top, idx, val = _fold(spec, x, u, index, k, None)
        assert idx.size == 0 and val.size == 0
        assert top.shape == (u.size, k)
        assert np.array_equal(top, full_top[:, :k])
    if name != "subsample":
        # the sample set is the leading column of the complete build
        assert np.array_equal(stats.build_sample_set(spec, x).top, full_top[:, :1])
    for floor in (0.1, 0.25):
        top, idx, val = _fold(spec, x, u, index, 0, floor)
        assert top.shape == (u.size, 0)
        keep = full_val >= floor
        if name == "uniform":
            assert (full_val == floor).any()  # the boundary is exercised
        got = _member_multisets(idx, val)
        want = _member_multisets(full_idx[keep], full_val[keep])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


SIEVE_CASES = {
    "x2p1": ([1, 0, 1], 10**10, None),
    "x3m2": ([-2, 0, 0, 1], 10**12, None),
    "2x2m7xp7": ([7, -7, 2], 10**8, None),
    "content2": ([2, 0, 2], 10**8, None),
    "subsample": ([1, 0, 1], 10**10, 5000),  # seed 9
}


@pytest.mark.parametrize("name", list(SIEVE_CASES))
def test_poly_sieve_reproduces_the_trial_path(name):
    coeffs, x, size = SIEVE_CASES[name]
    spec = sequences.polynomial_values(coeffs)
    mem, index = _choice(spec, x, size, 9)
    table = factor.build_prime_table(max(math.isqrt(int(mem.max())) + 1, 3))
    t_idx, t_val, t_top = factor.bulk_spectra_trial(mem, table, 3, 0.0)
    for k in (1, 2, 3):
        top = _fold(spec, x, mem, index, k, None)[0]
        assert np.array_equal(top, t_top[:, :k]), f"k={k}"
    if size is None:
        assert np.array_equal(sequences.members(spec, x), mem)
        assert np.array_equal(stats.build_sample_set(spec, x).top, t_top[:, :1])
    for floor in (0.0, 0.25):
        _, idx, val = _fold(spec, x, mem, index, 0, floor)
        keep = t_val >= floor
        got = _member_multisets(idx, val)
        want = _member_multisets(t_idx[keep], t_val[keep])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if size is None:
        # N_d(x) by root classes, with no pass over the members
        ds = np.arange(1, 1001)
        n_total, nd = sequences.class_counts(spec, x, ds)
        assert n_total == mem.size
        assert np.array_equal(nd, oracles.residue_counts(mem, ds))


MARK_CASES = {
    "x2p1": ([1, 0, 1], 10**10),
    "x3m2": ([-2, 0, 0, 1], 10**12),
    "x2pxp2": ([2, 1, 1], 10**8),  # every residue is a root mod 2
    "content2": ([2, 0, 2], 10**8),  # every residue is a root mod 2
}


@pytest.mark.parametrize("size", [None, 3000], ids=["full", "subsample"])  # seed 7
@pytest.mark.parametrize("name", list(MARK_CASES))
def test_poly_marks_equal_the_residue_oracle(name, size):
    coeffs, x = MARK_CASES[name]
    spec = sequences.polynomial_values(coeffs)
    u, index = _choice(spec, x, size, 7)
    assert [arith.poly_eval(coeffs, n) for n in index.tolist()] == u.tolist()
    window = factor.build_prime_table(200).primes
    for e in (1, 2):
        got = sequences.divisible_by_any(spec, index, window, e)
        assert np.array_equal(got, oracles.divisible_by_any(u, window**e))
        for p in window[:8].tolist():
            got = sequences.divisible_by_any(spec, index, np.array([p]), e)
            assert np.array_equal(got, oracles.divisible_by_any(u, [p**e])), (p, e)
    if name in ("x2pxp2", "content2"):
        assert sequences.divisible_by_any(spec, index, np.array([2]), 1).all()


def test_value_marks_on_a_far_narrow_range():
    # sparse by factor.is_dense, every member above 9e6: the marks cover
    # [min, max] of the values, an offset range of 10^6
    spec = sequences.shifted_primes(-9 * 10**6)
    u, index = stats._members(spec, 10**7)
    assert not factor.is_dense(u) and index is u and u.min() > 9 * 10**6
    window = factor.build_prime_table(1000).primes
    for e in (1, 2):
        got = sequences.divisible_by_any(spec, index, window, e)
        assert np.array_equal(got, oracles.divisible_by_any(u, window**e))
    ds = np.arange(1, 2001)
    assert np.array_equal(sequences.count_divisible(u, ds), oracles.residue_counts(u, ds))


@pytest.mark.parametrize("start", [1, 4999, 5000, 10**9])
def test_marks_with_and_without_the_index_offset(start):
    # over 5 000 consecutive indices (a range of 4 999) the mask starts at
    # 0 up to start 4 999, and at min(index) from 5 000 on
    index = np.arange(start, start + 5000, dtype=np.int64)
    assert (sequences._index_mask(index)[0] == 0) == (start < 5000)
    ds = np.arange(1, 300)
    assert np.array_equal(sequences.count_divisible(index, ds), oracles.residue_counts(index, ds))
    window = factor.build_prime_table(200).primes
    for spec, values in (
        (sequences.uniform_integers(), index),
        (sequences.polynomial_values([1, 0, 1]), index**2 + 1),
    ):
        for e in (1, 2):
            got = sequences.divisible_by_any(spec, index, window, e)
            assert np.array_equal(got, oracles.divisible_by_any(values, window**e))


@pytest.mark.parametrize(
    "coeffs, x, size",
    [
        ([1, 0, 1], 10**6, None),
        ([2, 0, 2], 10**6, None),
        ([-2, 0, 0, 1], 10**9, None),
        ([1, 0, 1], 10**8, 500),  # seed 3
    ],
    ids=["x2p1", "content2", "x3m2", "subsample"],
)
def test_repeated_factor_on_polynomial_values_brute_force(coeffs, x, size):
    spec = sequences.polynomial_values(coeffs)
    u, index = _choice(spec, x, size, 3)
    alpha, c = 0.04, 0.5  # the window starts below 2
    lo, hi = x**alpha, x**c
    if size is None:
        got = stats.repeated_factor_frequency(spec, x, alpha, c).value
    else:
        # a subsample's marks, which repeated_factor_frequency counts
        window = factor.build_prime_table(math.floor(hi) + 1).primes
        got = np.count_nonzero(sequences.divisible_by_any(spec, index, window, 2)) / u.size
    brute = sum(
        any(lo <= p <= hi and e >= 2 for p, e in sympy.factorint(v).items())
        for v in u.tolist()
    )
    assert brute > 0 and got == brute / u.size


def test_members_only_build_factors_nothing(monkeypatch):
    # the members that repeated_factor_frequency and
    # sieve_survivor_experiment mark: enumerated, never factored
    cases = [
        (sequences.uniform_integers(), 10**5),
        (sequences.polynomial_values([1, 0, 1]), 10**9),
    ]
    want = [sequences.members(spec, x) for spec, x in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a members-only build must not sieve or factor")

    monkeypatch.setattr(factor, "smallest_factor_sieve", refuse)
    monkeypatch.setattr(factor, "build_prime_table", refuse)
    for (spec, x), u in zip(cases, want):
        assert np.array_equal(stats._members(spec, x)[0], u)


BLOCK_CASES = {
    # dense: the spf source
    "thue_morse": (sequences.thue_morse_zeros(), 4001, None),
    # sparse: the trial source (1501 members, seed 5)
    "shifted_primes_subsample": (sequences.shifted_primes(1), 10**6, 1501),
    # polynomial values: the sieve over each block's window of arguments
    "x2p1": (sequences.polynomial_values([1, 0, 1]), 10**10, None),
    "x2p1_subsample": (sequences.polynomial_values([1, 0, 1]), 10**10, 1501),
    # X**3 - 30X**2 + 250X + 1: its 85 arguments below n0 = 86 are its
    # first 85 members, but not in argument order
    "cubic": (sequences.polynomial_values([1, 250, -30, 1]), 10**9, None),
}


# members folded in blocks of 1 and 3: the first 10**4 of each set
TINY_BLOCK_HEAD = 10**4


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_sets_do_not_depend_on_the_member_block(name, monkeypatch):
    spec, x, size = BLOCK_CASES[name]
    u, index = _choice(spec, x, size, 5)
    monkeypatch.setattr(factor, "MEMBER_BLOCK", 1 << 16)
    whole_top, whole_idx, whole_val = _fold(spec, x, u, index, 3, 0.0)
    # a short last block at 61
    assert u.size % 61
    if name == "cubic":
        first = index[:85]
        assert sorted(first.tolist()) == list(range(1, 86)) and (np.diff(first) < 0).any()
    elif spec.kind != "poly":
        assert factor.is_dense(u) == (name == "thue_morse")
    # blocks of 1 and 3 members give the head of the one-block fold
    head = slice(0, TINY_BLOCK_HEAD)
    inside = whole_idx < TINY_BLOCK_HEAD
    want = _member_multisets(whole_idx[inside], whole_val[inside])
    for block in (1, 3):
        monkeypatch.setattr(factor, "MEMBER_BLOCK", block)
        top, idx, val = _fold(spec, x, u[head], index[head], 3, 0.0)
        assert top.tobytes() == whole_top[head].tobytes()
        got = _member_multisets(idx, val)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if size is None:
        # and the estimators' own block driver over the whole set
        eta = box((0.1, 0.3), (0.3, 0.6))
        ests = []
        for block in (1 << 16, 61):
            monkeypatch.setattr(factor, "MEMBER_BLOCK", block)
            ests.append(stats.empirical_corr(spec, x, eta))
        assert ests[0] == ests[1]
    # every shape of build, in one block and in blocks of 61 (a short last
    # one), is the scalar path's
    ref = scalar_spectra(u)
    for k, floor in itertools.product(range(factor.TOP_K + 1), (None, 0.0, 0.1, 0.5)):
        if k == 0 and floor is None:
            continue  # factors nothing
        builds = []
        for block in (1 << 16, 61):
            monkeypatch.setattr(factor, "MEMBER_BLOCK", block)
            builds.append(_fold(spec, x, u, index, k, floor))
        (one_top, one_idx, one_val), (short_top, short_idx, short_val) = builds
        assert short_top.tobytes() == one_top.tobytes()
        got = _member_multisets(short_idx, short_val)
        want = _member_multisets(one_idx, one_val)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert_fold_matches(ref, one_top, one_idx, one_val, k, floor)


def test_poly_blocks_keep_to_one_window_of_arguments(monkeypatch):
    # a subsample's block sieves no more than MEMBER_BLOCK arguments, so no
    # array of the sieve covers the whole argument range
    monkeypatch.setattr(factor, "MEMBER_BLOCK", 61)
    spec, x, size = BLOCK_CASES["x2p1_subsample"]
    u, index = _choice(spec, x, size, 5)
    table = factor._table_for(int(u.max()))
    roots = arith.roots_mod_primes(spec.coeffs, table.primes)
    blocks = list(factor.sieve_blocks(u, index, table, roots, 1, None))
    rows = [r for r, _, _, _ in blocks]
    assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]] and rows[-1].stop == u.size
    window = [np.unique(index[r] // 61) for r in rows]
    assert all(w.size == 1 for w in window)
    # the arguments ascend, so each window is one block
    assert (np.diff(np.concatenate(window)) > 0).all()
    top = np.concatenate([t for _, t, _, _ in blocks])
    assert np.array_equal(top, factor.bulk_spectra_trial(u, table, 1, None)[2])


def test_member_corr_pinned_at_the_parent_values():
    # the values of the whole-set fold that the block fold replaced
    eta = box((0.1, 0.3), (0.3, 0.6))
    for spec, x, value, std_error in (
        (sequences.uniform_integers(), 10**5, 0.65949, 0.0035600322188148806),
        (sequences.shifted_primes(1), 10**6, 0.7092409997706948, 0.003653096009301352),
    ):
        est = stats.empirical_corr(spec, x, eta)
        assert (est.value, est.std_error) == (value, std_error)
