"""Poisson-Dirichlet sampler: telescoping, CDFs, correlation Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sticks_from_uniforms
from pdlab import dickman, pdprocess
from pdlab.boxes import box, box_correlation_exact, box_correlation_quadrature
from pdlab.errors import ValidationError
from pdlab.report import Estimate

# Reference folds: one boolean-compacted row set per round, drawn with
# uniform(), every fold gathering and scattering whole-block arrays and
# top-k merging by a sort.  The round generator must reproduce them bit
# for bit.


def _ref_stick_rounds(rng, n, floor, done=None):
    idx = np.arange(n, dtype=np.int64)
    residual = np.ones(n, dtype=np.float64)
    while idx.size:
        u = rng.uniform(size=idx.size)
        stick = residual * (1.0 - u)
        residual = residual * u
        yield idx, stick, residual
        alive = residual >= floor
        if done is not None:
            alive &= ~done(idx, residual)
        idx, residual = idx[alive], residual[alive]


def _ref_entries_above(rng, n, floor):
    out_i, out_v = [], []
    for idx, stick, _ in _ref_stick_rounds(rng, n, floor):
        keep = stick >= floor
        out_i.append(idx[keep])
        out_v.append(stick[keep])
    return np.concatenate(out_i), np.concatenate(out_v)


def _ref_topk_block(rng, n, k, truncation):
    top = np.zeros((n, k), dtype=np.float64)
    uncertified = 0

    def certified(idx, residual):
        nonlocal uncertified
        final = residual <= top[idx, k - 1]
        uncertified += int(np.count_nonzero(~final & (residual < truncation)))
        return final

    for idx, stick, _ in _ref_stick_rounds(rng, n, truncation, certified):
        merged = np.concatenate([top[idx], stick[:, None]], axis=1)
        merged.sort(axis=1)
        top[idx] = merged[:, :0:-1]
    return top, uncertified


def _ref_l1_and_deviation(rng, n, truncation):
    l1 = np.zeros(n, dtype=np.float64)
    total = np.zeros(n, dtype=np.float64)
    tail = np.empty(n, dtype=np.float64)
    for idx, stick, residual in _ref_stick_rounds(rng, n, truncation):
        l1[idx] = np.maximum(l1[idx], stick)
        total[idx] += stick
        tail[idx] = residual
    return l1, float(np.max(np.abs(total + tail - 1.0)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rngs(block):
    return pdprocess._block_rng(41, block), pdprocess._block_rng(41, block)


def test_sticks_from_forced_uniforms():
    # all U_i = 1/2 gives sticks 1/2, 1/4, 1/8, ... already descending
    sticks, residual = sticks_from_uniforms([Fraction(1, 2)] * 6)
    assert sticks == [Fraction(1, 2**j) for j in range(1, 7)]
    assert sum(sticks) + residual == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=12))
def test_stick_telescoping_exact(us):
    sticks, residual = sticks_from_uniforms(us)
    assert sum(sticks) + residual == 1  # exact rational identity
    assert all(s >= 0 for s in sticks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=40))
def test_certified_lead_is_the_lead_of_the_full_run(us):
    # no stick after round j exceeds round j's residual, so the running
    # maximum is final at the first round whose residual is at most it
    sticks, _ = sticks_from_uniforms(us)
    residuals = [sticks_from_uniforms(us[: j + 1])[1] for j in range(len(us))]

    def lead(certify):
        top = 0
        for stick, residual in zip(sticks, residuals):
            top = max(top, stick)
            if residual < pdprocess.TRUNCATION or (certify and residual <= top):
                break
        return top

    assert lead(certify=True) == lead(certify=False)


def test_random_draws_equal_uniform_draws():
    # the engine draws with Generator.random; the stream is uniform()'s
    a, b = _rngs(0)
    want = a.uniform(size=10**5)
    sizes = [1, 2, 999, 4096, 17, 33333, 0, 5]
    parts = [b.random(m) for m in sizes]
    parts.append(b.random(10**5 - sum(sizes)))
    assert _same_bits(np.concatenate(parts), want)


@pytest.mark.parametrize("truncation", [1e-12, 1e-6])
def test_topk_fold_equals_the_sorting_fold(truncation):
    cut = 0
    for block in range(6):
        for k in (1, 2, 3, 5):
            a, b = _rngs(block)
            want_top, want_cut = _ref_topk_block(a, 5000, k, truncation)
            top, uncertified = pdprocess._topk_block(b, 5000, k, truncation)
            assert _same_bits(top, want_top)
            assert uncertified == want_cut
            cut += uncertified
    # at 1e-6 the truncation cuts some rows off uncertified
    assert (cut > 0) == (truncation == 1e-6)


@pytest.mark.parametrize("floor", [0.3, 0.1, 1e-12])
def test_entries_fold_equals_the_compacting_fold(floor):
    for block in range(6):
        a, b = _rngs(block)
        want_idx, want_val = _ref_entries_above(a, 5000, floor)
        idx, val = pdprocess._entries_above(b, 5000, floor)
        assert _same_bits(idx, want_idx)
        assert _same_bits(val, want_val)


@pytest.mark.parametrize("n", [1, 7, 1000, pdprocess.BLOCK])
def test_l1_fold_equals_the_scattering_fold(n):
    for block in range(6):
        a, b = _rngs(block)
        want_l1, want_dev = _ref_l1_and_deviation(a, n, 1e-12)
        l1, dev = pdprocess._l1_and_deviation(b, n, 1e-12)
        assert _same_bits(l1, want_l1)
        assert dev == want_dev


def _certified_l1(rng, n):
    return pdprocess._l1_and_deviation(rng, n, pdprocess.TRUNCATION, pdprocess._lead_certified)


@pytest.mark.parametrize("n", [1, 7, 1000, pdprocess.BLOCK])
def test_certified_l1_fold_equals_the_top_1_column(n):
    # the same rule as the top-k fold at k = 1, so the same draws and bits
    for block in range(6):
        a, b = _rngs(block)
        top, uncertified = pdprocess._topk_block(a, n, 1, pdprocess.TRUNCATION)
        l1, dev = _certified_l1(b, n)
        assert _same_bits(l1, top[:, 0])
        assert uncertified == 0
        assert dev <= 1e-12


def test_certified_rows_retire_by_their_rule(monkeypatch):
    real = pdprocess._stick_rounds
    retired = []

    def spy(rng, n, floor, state, retire=None, done=None):
        def check(idx, residual, st):
            assert np.all((residual <= st[0]) | (residual < floor))
            retired.append(idx)
            retire(idx, residual, st)

        return real(rng, n, floor, state, check, done)

    monkeypatch.setattr(pdprocess, "_stick_rounds", spy)
    _certified_l1(pdprocess._block_rng(17, 0), 5000)
    assert np.array_equal(np.sort(np.concatenate(retired)), np.arange(5000))


class _CountingRng:
    """A generator proxy that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def random(self, size=None, out=None):
        self.draws += out.size if out is not None else size
        return self.rng.random(size, out=out)


def test_certified_pass_draws_few_uniforms_per_sample(monkeypatch):
    # measured: 1.83 draws per sample, against about 29 for a pass run to TRUNCATION
    real, rngs = pdprocess._block_rng, []

    def counted(seed, block):
        rngs.append(_CountingRng(real(seed, block)))
        return rngs[-1]

    monkeypatch.setattr(pdprocess, "_block_rng", counted)
    n = 4 * pdprocess.BLOCK
    pdprocess.l1_mass_mc(n, seed=23)
    assert len(rngs) == 4
    assert sum(r.draws for r in rngs) < 2.5 * n


def test_certified_l1_follows_the_dickman_cdf():
    n = 2 * 10**5
    parts = pdprocess._combine_blocks(n, 29, 1, lambda rng, size: _certified_l1(rng, size)[0])
    l1 = np.concatenate(parts)
    for c in (0.3, 0.5, 0.7, 0.9):
        want = dickman.cdf_l1(c)
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(np.count_nonzero(l1 <= c) / n - want) <= 5 * sigma


@pytest.mark.parametrize("rule", ["done", "floor"])
def test_a_retired_row_is_never_yielded_again(rule):
    # a row leaves the rounds in the round it retires: every round yields
    # only rows still in play, ascending, and every row retires once
    n = 1000
    retired = []

    def retire(idx, residual, state):
        retired.extend(idx.tolist())

    def done(residual, state):
        return state[0] > 0.5

    floor, stop = (1e-12, done) if rule == "done" else (0.01, None)
    rounds = pdprocess._stick_rounds(pdprocess._block_rng(5, 0), n, floor, [np.zeros(n)], retire, stop)
    for rows, stick, (lead,) in rounds:
        assert rows.size == stick.size == lead.size
        assert (np.diff(rows) > 0).all()
        assert not np.isin(rows, retired).any()
        np.maximum(lead, stick, out=lead)
    assert sorted(retired) == list(range(n))


def test_mass_identity_bulk():
    dev = pdprocess.mass_identity_max_deviation(10**5, seed=7)
    assert dev <= 1e-12


def test_joint_cdf_trivial_threshold():
    est = pdprocess.joint_cdf_mc([1.0], 10**4, seed=0)
    assert est.value == 1.0


def test_joint_cdf_matches_dickman():
    est = pdprocess.joint_cdf_mc([0.5], 10**6, seed=42)
    rho2 = dickman.rho(2.0)
    assert abs(est.value - rho2) <= 3 * est.std_error
    est3 = pdprocess.joint_cdf_mc([1.0 / 3.0], 10**6, seed=42)
    assert abs(est3.value - dickman.rho(3.0)) <= 3 * est3.std_error


def counting_joint_cdf(c, n_samples: int, seed: int) -> Estimate:
    """An independent reference for joint_cdf_mc: the equivalent event
    {#(entries > c_j) < j for all j} on each sample's unsorted sticks."""

    def fold(rng, size):
        idx, vals = pdprocess._entries_above(rng, size, pdprocess.TRUNCATION)
        ok = np.ones(size, dtype=bool)
        for j, cj in enumerate(c, start=1):
            ok &= np.bincount(idx[vals > cj], minlength=size) < j
        return int(np.count_nonzero(ok))

    return Estimate.frequency(sum(pdprocess._combine_blocks(n_samples, seed, 1, fold)), n_samples)


def test_joint_cdf_two_estimators_agree():
    a = pdprocess.joint_cdf_mc([0.9, 0.5], 2 * 10**5, seed=9)
    b = counting_joint_cdf([0.9, 0.5], 2 * 10**5, seed=10)
    joint_se = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 3 * joint_se


def test_corr_mc_single_interval():
    eta = box((0.25, 0.5))
    est = pdprocess.corr_mc(eta, 10**6, seed=3)
    assert abs(est.value - math.log(2)) <= 3 * est.std_error


def test_corr_mc_zero_weight():
    from pdlab.boxes import Box, BoxFunction

    eta = BoxFunction(boxes=(Box((0.25,), (0.5,), weight=0.0),))
    est = pdprocess.corr_mc(eta, 10**4, seed=3)
    assert est.value == 0.0


def test_corr_mc_disjoint_pair_matches_product():
    eta = box((0.1, 0.2), (0.3, 0.4))
    est = pdprocess.corr_mc(eta, 10**6, seed=5)
    want = box_correlation_exact([(0.1, 0.2), (0.3, 0.4)])
    assert abs(est.value - want) <= 3 * est.std_error


def test_corr_mc_simplex_clipped_matches_quadrature():
    eta = box((0.4, 0.6), (0.5, 0.7))
    est = pdprocess.corr_mc(eta, 10**6, seed=6)
    want = box_correlation_quadrature(eta)
    assert abs(est.value - want) <= 3 * est.std_error


def test_corr_mc_symmetry_under_coordinate_permutation():
    a = pdprocess.corr_mc(box((0.1, 0.2), (0.3, 0.4)), 10**5, seed=8)
    b = pdprocess.corr_mc(box((0.3, 0.4), (0.1, 0.2)), 10**5, seed=8)
    assert a.value == b.value  # same samples, symmetric tuple sum


def test_thread_count_never_changes_estimates():
    eta = box((0.2, 0.45))
    a = pdprocess.corr_mc(eta, 3 * 10**5, seed=12, threads=1)
    b = pdprocess.corr_mc(eta, 3 * 10**5, seed=12, threads=8)
    assert a == b
    c = pdprocess.joint_cdf_mc([0.5], 3 * 10**5, seed=12, threads=1)
    d = pdprocess.joint_cdf_mc([0.5], 3 * 10**5, seed=12, threads=8)
    assert c == d
    # a short last block, and more blocks than threads at every count
    n = 3 * pdprocess.BLOCK + 5
    l1 = {t: pdprocess.l1_mass_mc(n, seed=13, threads=t) for t in (1, 2, 3)}
    cdf = {t: pdprocess.joint_cdf_mc([0.6, 0.3, 0.1], n, seed=13, threads=t) for t in (1, 2, 3)}
    assert l1[1] == l1[2] == l1[3]
    assert cdf[1] == cdf[2] == cdf[3]


def test_l1_mass_mc_thread_independent_and_near_golomb_dickman():
    a, dev_a = pdprocess.l1_mass_mc(2 * 10**5, seed=3, threads=1)
    b, dev_b = pdprocess.l1_mass_mc(2 * 10**5, seed=3, threads=4)
    assert (a, dev_a) == (b, dev_b)
    assert a.n == 2 * 10**5
    assert abs(a.value - 0.6243299885) <= 5 * a.std_error
    assert dev_a <= 1e-12
    assert pdprocess.mass_identity_max_deviation(2 * 10**5, seed=3) <= 1e-12


def test_estimates_pinned_at_the_parent_values():
    # 10^5 samples, seed 3, 2 threads: the block moments and hit counts
    # reproduce the estimates of the one-pass sums they replaced
    eta = box((0.1, 0.3), (0.3, 0.6))
    assert pdprocess.corr_mc(eta, 10**5, seed=3, threads=2).value == 0.76037
    # l1_mass_mc stops each sample once its L1 is certified, which moved
    # its bits; the full-truncation mass identity pass keeps the parent's
    assert pdprocess.l1_mass_mc(10**5, seed=3, threads=2)[0].value == 0.6245400994483579
    assert pdprocess.mass_identity_max_deviation(10**5, seed=3, threads=2) == 8.881784197001252e-16
    cdf = pdprocess.joint_cdf_mc([0.5, 0.3], 10**5, seed=3, threads=2)
    assert (cdf.value, cdf.std_error) == (0.1777, 0.0012088122683030645)


def test_validation_errors():
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([], 10, seed=0)
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([1.5], 10, seed=0)
    for c in (None, ["a"], [[0.5]]):
        with pytest.raises(ValidationError):
            pdprocess.joint_cdf_mc(c, 10, seed=0)
    assert pdprocess.joint_cdf_mc(0.5, 10, 1) == pdprocess.joint_cdf_mc([0.5], 10, 1)
    with pytest.raises(ValidationError):
        pdprocess.joint_cdf_mc([0.5], 0, seed=0)
