"""Prime tables, factorization round-trips, normalized spectra."""

import itertools
import math

import numpy as np
import pytest
import scalar
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PrimeCounts, largest_prime_factor
from scalar_spectra import assert_fold_matches, scalar_spectra

from pdlab import factor, sequences
from pdlab.errors import ResourceBudgetError, ValidationError


@pytest.fixture(scope="module")
def table():
    return factor.build_prime_table(10**6)


@pytest.fixture(scope="module")
def pc():
    return PrimeCounts(10**6)


def test_small_prime_tables():
    assert factor.build_prime_table(10).primes.tolist() == [2, 3, 5, 7]
    assert factor.build_prime_table(2).primes.tolist() == [2]


def test_prime_count_against_sympy(table):
    assert len(table.primes) == sympy.primepi(10**6) == 78498


def test_prime_table_matches_sympy_exactly():
    small = factor.build_prime_table(10**4)
    assert small.primes.tolist() == list(sympy.primerange(2, 10**4 + 1))


def test_factorize_examples(pc):
    # the scalar reference
    assert scalar.factorize(12, pc) == ((2, 2), (3, 1))
    assert scalar.factorize(1, pc) == ()
    assert scalar.factorize(9991, pc) == ((97, 1), (103, 1))


def test_factorize_agrees_with_sympy(pc):
    rng = np.random.Generator(np.random.Philox(key=5))
    for u in rng.integers(1, 10**5, size=300):
        u = int(u)
        assert dict(scalar.factorize(u, pc)) == sympy.factorint(u)


def test_spectrum_examples(pc):
    l12 = math.log(12)
    assert scalar.spectrum(12, pc) == pytest.approx(
        (math.log(3) / l12, math.log(2) / l12, math.log(2) / l12), abs=1e-15
    )
    assert scalar.spectrum(1, pc) == (1.0,)
    assert scalar.spectrum(7, pc) == (1.0,)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_round_trip_and_spectrum_properties(table, u):
    # the trial path with a table up to sqrt(1e12), which covers every u here
    values = np.array([u], dtype=np.int64)
    prod = 1
    for idx, p, e in factor._trial_prime_powers(values, table):
        assert idx.tolist() == [0]
        prod *= int(p[0]) ** int(e[0])
    assert prod == u
    _, entries, _ = factor.bulk_spectra_trial(values, table, floor=0.0)
    assert abs(entries.sum() - 1.0) <= 1e-12
    assert (np.diff(entries) <= 0).all()


def _oracle_spf(limit):
    """spf[n] for 0 <= n <= limit from the oracle's primes, each writing
    its multiples, largest first, so the smallest prime factor writes last."""
    spf = np.arange(limit + 1)
    for p in PrimeCounts(limit).primes[::-1].tolist():
        spf[p::p] = p
    return spf


B = factor._SIEVE_BLOCK
# 3 * B + 5: the square of the largest prime <= sqrt(limit) lies two
# segments after the prime itself
SIEVE_LIMITS = [*range(2, 65), B - 1, B, B + 1, 2 * B + 7, 3 * B + 5]


def test_segmented_sieve_matches_oracle_sieve():
    for limit in SIEVE_LIMITS:
        spf = factor.smallest_factor_sieve(limit)
        assert spf.dtype == np.int32
        assert spf[1] == 1
        assert np.array_equal(spf, _oracle_spf(limit)), limit
    p = int(PrimeCounts(math.isqrt(3 * B + 5)).primes[-1])
    assert p // B == 0 and p * p // B == 2


@pytest.mark.parametrize("block", [2, 16, 30])
def test_segmented_sieve_does_not_depend_on_the_segment(block, monkeypatch):
    # small segments: most primes have their squares many segments later
    monkeypatch.setattr(factor, "_SIEVE_BLOCK", block)
    for limit in (2, 3, block + 1, 2 * block + 7, 4099):
        assert np.array_equal(factor.smallest_factor_sieve(limit), _oracle_spf(limit)), limit


def test_largest_factor_table_matches_oracle():
    # 2**17 + 5 crosses every pass boundary 2**k of the table build, and
    # 2**20 + 5 a chunk boundary inside [2**19, 2**20) too
    for limit in (2**17 + 5, 2**20 + 5):
        lpf = factor._largest_factor_table(factor.smallest_factor_sieve(limit))
        assert np.array_equal(lpf[1:], largest_prime_factor(limit, PrimeCounts(limit))[1:])


@pytest.mark.parametrize("block", [2, 16, 30])
def test_largest_factor_table_does_not_depend_on_the_chunk(block, monkeypatch):
    # chunks of the table build, and segments of the sieve under it, of
    # `block` entries: limits on and past chunk ends and ranges [2**k, 2**(k+1))
    monkeypatch.setattr(factor, "_SIEVE_BLOCK", block)
    want = largest_prime_factor(4099, PrimeCounts(4099))
    for limit in (2, 3, 4, 5, block + 1, 2 * block + 7, 64, 65, 1024, 4099):
        lpf = factor._largest_factor_table(factor.smallest_factor_sieve(limit))
        assert np.array_equal(lpf[1:], want[1 : limit + 1]), limit


def _thue_morse_1e5():
    return sequences.members(sequences.thue_morse_zeros(), 10**5)


def _dense_subsample():
    rng = np.random.Generator(np.random.Philox(key=9))
    values = np.sort(rng.choice(np.arange(1, 2**16 + 4), size=8000, replace=False))
    assert factor.is_dense(values)
    return values


@pytest.mark.parametrize(
    "make_values",
    [lambda: np.arange(1, 2**16 + 4), _thue_morse_1e5, _dense_subsample],
    ids=["range", "thue_morse", "subsample"],
)
def test_spf_and_trial_paths_agree_and_descend(make_values, table):
    values = make_values()
    dense = factor.bulk_spectra(values, factor.smallest_factor_sieve(int(values.max())))
    trial = factor.bulk_spectra_trial(values, table)
    assert np.array_equal(dense[2], trial[2])
    runs = []
    for idx, val, _ in (dense, trial):
        assert idx.dtype == np.int32
        order = np.lexsort((val, idx))
        runs.append((idx[order], val[order]))
        # stream order: entries never increase within a member
        by_member = np.argsort(idx, kind="stable")
        same = idx[by_member][1:] == idx[by_member][:-1]
        assert (np.diff(val[by_member])[same] <= 0).all()
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def _per_member(idx, val):
    order = np.lexsort((val, idx))
    return idx[order], val[order]


def _frame_sets(table):
    """Value sets, each folded as its own blocks, that reach both states of
    the fold: every row of the block in play, and rows taken out as they
    finish."""
    rng = np.random.Generator(np.random.Philox(key=11))
    return {
        "range": np.arange(1, 61),
        # every row leaves after the first batch
        "primes": table.primes[:40],
        # u = 1, then rows that stay longest, one leaving per batch
        "powers_of_2": 2 ** np.arange(17),
        "one": np.ones(1, dtype=np.int64),
        # not contiguous
        "thue_morse": sequences.members(sequences.thue_morse_zeros(), 400),
        "subsample": np.sort(rng.choice(np.arange(1, 10**5), size=60, replace=False)),
    }


FOLDS = list(itertools.product(range(factor.TOP_K + 1), (None, 0.0, 0.1, 0.5)))


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_bulk_spectra_do_not_depend_on_the_member_block(block, table, monkeypatch):
    # 2 000 values, a multiple of neither 3 nor 2**16: the last block is short
    values = np.arange(1, 2001)
    spf = factor.smallest_factor_sieve(2000)
    paths = ((factor.bulk_spectra, spf), (factor.bulk_spectra_trial, table))
    whole = [path(values, source, 3, 0.0) for path, source in paths]
    sets = _frame_sets(table)
    set_paths = {
        name: ((factor.bulk_spectra, factor.smallest_factor_sieve(max(int(v.max()), 2))),
               (factor.bulk_spectra_trial, table))
        for name, v in sets.items()
    }
    set_whole = {
        (name, k, floor, i): path(sets[name], source, k, floor)
        for name in sets
        for k, floor in FOLDS
        for i, (path, source) in enumerate(set_paths[name])
    }
    monkeypatch.setattr(factor, "MEMBER_BLOCK", block)
    for (path, source), (w_idx, w_val, w_top) in zip(paths, whole):
        idx, val, top = path(values, source, 3, 0.0)
        assert top.tobytes() == w_top.tobytes()
        for got, want in zip(_per_member(idx, val), _per_member(w_idx, w_val)):
            assert np.array_equal(got, want)
    for name, values in sets.items():
        ref = scalar_spectra(values)
        for k, floor in FOLDS:
            for i, (path, source) in enumerate(set_paths[name]):
                idx, val, top = path(values, source, k, floor)
                w_idx, w_val, w_top = set_whole[name, k, floor, i]
                assert top.tobytes() == w_top.tobytes(), (name, k, floor)
                for got, want in zip(_per_member(idx, val), _per_member(w_idx, w_val)):
                    assert np.array_equal(got, want), (name, k, floor)
                assert_fold_matches(ref, top, idx, val, k, floor)


@pytest.mark.parametrize("peel", ["lpf", "trial"])
@pytest.mark.parametrize("first", [1, 2])
def test_each_step_gets_the_rows_that_still_need_an_entry(first, peel, table):
    # a row leaves in the step it finishes: step j is asked for exactly the
    # values with a (j+1)-th prime whose fold still needs it (the first
    # entry, a top-k column, or one after an entry at or above the floor)
    values = np.arange(first, 3001)
    lpf = factor._largest_factor_table(factor.smallest_factor_sieve(3000))
    peels = {
        "lpf": lambda: factor._lpf_peel(values, lpf),
        "trial": lambda: factor._trial_peel(values, table),
    }
    # every value's entries, descending, from the complete fold
    _, idx, val = factor._fold_spectra(values, peels[peel](), 0, 0.0)
    entries = [[] for _ in values]
    for i, v in zip(idx.tolist(), val.tolist()):
        entries[i].append(v)
    entries = [e for e, u in zip(entries, values) if u > 1]
    for k, floor in itertools.product(range(factor.TOP_K + 1), (None, 0.0, 0.3)):
        if k == 0 and floor is None:
            continue
        rows, state, step = peels[peel]()
        asked = []

        def counting(j, state):
            asked.append(state[0].size)
            return step(j, state)

        factor._fold_spectra(values, (rows, state, counting), k, floor)
        want = []
        for j in itertools.count():
            need = sum(
                len(e) > j and (j < max(k, 1) or (floor is not None and e[j - 1] >= floor))
                for e in entries
            )
            if not need:
                break
            want.append(need)
        assert asked == want, (k, floor)


@pytest.mark.parametrize("peel", ["lpf", "trial"])
def test_fold_of_every_row_matches_the_generic_frame(peel, table):
    # with no value 1 the fold starts on every row, and writes top by
    # columns; a leading 1 puts the same values, one row later, on the
    # generic path
    rest = np.concatenate([np.arange(2, 3001), 2 ** np.arange(12, 20), table.primes[-50:]])
    lpf = factor._largest_factor_table(factor.smallest_factor_sieve(int(rest.max())))
    peels = {
        "lpf": lambda v: factor._lpf_peel(v, lpf),
        "trial": lambda v: factor._trial_peel(v, table),
    }
    with_one = np.concatenate([[1], rest])
    for k, floor in itertools.product(range(factor.TOP_K + 1), (None, 0.0, 0.3)):
        top1, idx1, val1 = factor._fold_spectra(with_one, peels[peel](with_one), k, floor)
        top0, idx0, val0 = factor._fold_spectra(rest, peels[peel](rest), k, floor)
        assert top1[1:].tobytes() == top0.tobytes(), (k, floor)
        assert top1[0].tolist() == [1.0, 0.0, 0.0][:k]
        if floor is None:
            assert idx1.size == idx0.size == 0
            continue
        # u = 1's entry comes last
        assert (idx1[-1], val1[-1]) == (0, 1.0)
        assert (idx1[:-1] - 1).tobytes() == idx0.tobytes(), (k, floor)
        assert val1[:-1].tobytes() == val0.tobytes(), (k, floor)


@pytest.mark.parametrize("bad", [[0, -3, 6], [6.7], [5, 0]])
def test_bulk_paths_reject_invalid_values(bad, table):
    spf = factor.smallest_factor_sieve(100)
    with pytest.raises(ValidationError):
        factor.bulk_spectra(bad, spf)
    with pytest.raises(ValidationError):
        factor.bulk_spectra_trial(bad, table)


def test_bulk_spectra_matches_scalar_path(table, pc):
    values = np.arange(1, 4001, dtype=np.int64)
    spf = factor.smallest_factor_sieve(4000)
    idx, val, top = factor.bulk_spectra(values, spf)
    idx2, val2, top2 = factor.bulk_spectra_trial(values, table)
    assert np.array_equal(top, top2)
    for i, u in enumerate(values):
        mine = np.sort(val[idx == i])[::-1]
        ref = np.array(scalar.spectrum(int(u), pc))
        assert np.allclose(mine, ref, atol=1e-12)
        assert np.allclose(np.sort(val2[idx2 == i])[::-1], ref, atol=1e-12)


def test_bulk_top3_is_sorted_prefix(table):
    values = np.arange(1, 20001, dtype=np.int64)
    spf = factor.smallest_factor_sieve(20000)
    _, _, top = factor.bulk_spectra(values, spf)
    assert (np.diff(top, axis=1) <= 1e-15).all()
    # row sums of the full spectrum are 1, so top3 sums never exceed 1
    assert (top.sum(axis=1) <= 1.0 + 1e-9).all()


def test_factorize_table_too_small():
    # the scalar reference refuses a value its primes cannot factor
    with pytest.raises(ValueError):
        scalar.factorize(10**4 + 7, PrimeCounts(10))


def _per_value(batches, n):
    """Each value's [(p, e), ...] from prime_powers batches; checks that no
    batch repeats an index and that each value's primes ascend across
    batches."""
    per = [[] for _ in range(n)]
    for idx, p, e in batches:
        idx = idx.tolist()
        assert len(set(idx)) == len(idx)
        for i, q, k in zip(idx, p.tolist(), e.tolist()):
            assert not per[i] or per[i][-1][0] < q
            per[i].append((q, k))
    return per


def _factorint(values):
    return [sorted(sympy.factorint(int(v)).items()) if v > 1 else [] for v in values]


def test_prime_powers_spf_branch_vs_sympy():
    values = np.arange(1, 20001)
    assert factor.is_dense(values)
    assert _per_value(factor.prime_powers(values), values.size) == _factorint(values)


def test_prime_powers_trial_branch_vs_sympy():
    values = np.random.Generator(np.random.Philox(key=13)).integers(1, 10**12, size=1000)
    assert not factor.is_dense(values)
    assert _per_value(factor.prime_powers(values), values.size) == _factorint(values)


def test_prime_powers_with_cofactors_past_the_table():
    # the table reaches sqrt(max) ~ 1e6; each of these keeps a prime cofactor above it
    big = [sympy.nextprime(10**12), 2 * sympy.nextprime(5 * 10**11),
           6 * sympy.nextprime(10**11), sympy.nextprime(10**6) * sympy.nextprime(10**6 + 10),
           2**39, 3 * 7**13]
    values = np.array(big, dtype=np.int64)
    assert _per_value(factor.prime_powers(values), values.size) == _factorint(big)


def test_trial_branch_at_the_table_limit_squared():
    limit = 10**5
    table = factor.build_prime_table(limit)
    p, q = sympy.prevprime(limit), sympy.prevprime(sympy.prevprime(limit))
    r = sympy.nextprime(limit)
    # p**2 and p*q just below limit**2; r*q with a cofactor past the table;
    # a prime below limit**2 that outlives every table prime
    big = [p**2, p * q, r * q, sympy.prevprime(limit**2), limit**2, 2**33]
    values = np.array(big, dtype=np.int64)
    assert max(big) <= limit**2
    got = _per_value(factor._trial_prime_powers(values, table), values.size)
    assert got == _factorint(big)


def test_prime_powers_of_an_object_array():
    # moduli past int64's exact F_p range come as Python integers
    big = [1, 12, 2**29 + 11, (10**6 + 3) ** 2, 10**12 + 39, 2**31 * 3**5]
    values = np.array(big, dtype=object)
    assert _per_value(factor.prime_powers(values), values.size) == _factorint(big)


@pytest.mark.parametrize("u", [(10**12 + 61) ** 2, 10**20])
def test_prime_powers_refuse_values_past_the_table_budget(u):
    with pytest.raises(ResourceBudgetError):
        factor.prime_powers(np.array([6, u], dtype=object))


def test_spf_and_trial_branches_give_the_same_prime_powers():
    values = np.arange(0, 20001)
    spf = factor._spf_prime_powers(values, factor.smallest_factor_sieve(20000))
    trial = factor._trial_prime_powers(values, factor.build_prime_table(142))
    assert _per_value(spf, values.size) == _per_value(trial, values.size)


def test_factorize_sizes_its_own_table():
    # one integer, as arith.poly_root_count factors its modulus
    u = (10**6 + 3) * (10**6 + 33)
    assert _per_value(factor.prime_powers(np.array([u])), 1) == [[(10**6 + 3, 1), (10**6 + 33, 1)]]
    assert _per_value(factor.prime_powers(np.array([1])), 1) == [[]]
    with pytest.raises(ResourceBudgetError):
        factor.prime_powers(np.array([10**18 + 3]))
