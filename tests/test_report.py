"""The one mean reduction: block moments and their combination; the one
joint-cdf hit count."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlab.errors import ValidationError
from pdlab.report import Estimate, joint_cdf_hits, joint_cdf_thresholds, moments

finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=300))
def test_one_block_gives_numpy_mean_and_var_bits(xs):
    values = np.array(xs)
    est = Estimate.mean([moments(values)])
    assert est.n == len(xs)
    assert est.value == float(np.mean(values))
    assert est.std_error == math.sqrt(float(np.var(values)) / len(xs))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=5000),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.sampled_from([1.0, 1e-3, 1e6]),
)
def test_split_blocks_agree_with_one_block(seed, n, cuts, scale):
    # block statistics of the shape the Monte Carlo folds produce
    rng = np.random.default_rng(seed)
    values = scale * rng.exponential(size=n)
    edges = sorted({0, n, *(int(c * n) for c in cuts)})
    parts = [moments(values[a:b]) for a, b in zip(edges, edges[1:]) if b > a]
    split, whole = Estimate.mean(parts), Estimate.mean([moments(values)])
    assert split.n == whole.n == n
    assert math.isclose(split.value, whole.value, rel_tol=1e-12)
    assert math.isclose(split.std_error, whole.std_error, rel_tol=1e-12)


def test_mean_of_a_constant_has_no_error():
    est = Estimate.mean([moments(np.full(7, 0.25)), moments(np.full(3, 0.25))])
    assert (est.value, est.std_error, est.n) == (0.25, 0.0, 10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 400))
def test_joint_cdf_hits_count_rows_under_every_threshold(seed, k, n):
    rng = np.random.Generator(np.random.Philox(key=seed))
    # entries on a coarse grid, so that many sit exactly on a threshold
    top = np.sort(rng.integers(0, 11, (n, 3)) / 10, axis=1)[:, ::-1]
    c = (rng.integers(1, 11, k) / 10).tolist()
    want = int(np.count_nonzero(np.all(top[:, :k] <= np.asarray(c)[None, :], axis=1)))
    # the hit count reads only the first len(c) columns of a wider top
    assert joint_cdf_hits(top, c) == joint_cdf_hits(np.ascontiguousarray(top[:, :k]), c) == want


def test_thresholds_are_one_number_or_a_list():
    assert joint_cdf_thresholds(0.5) == joint_cdf_thresholds([0.5]) == [0.5]
    assert joint_cdf_thresholds([1, 0.25]) == [1.0, 0.25]


@pytest.mark.parametrize("c", [None, ["a"], [[0.5]], 0, float("nan")])
def test_malformed_thresholds_are_validation_errors(c):
    with pytest.raises(ValidationError, match="threshold"):
        joint_cdf_thresholds(c)
