"""Box test functions: exact correlation values, quadrature, tuple sums."""

import itertools
import math

import numpy as np
import pytest

from pdlab.boxes import (
    Box,
    BoxFunction,
    box,
    box_correlation_exact,
    box_correlation_quadrature,
    set_partitions,
    tuple_sum_per_item,
)
from pdlab.errors import ValidationError


def test_box_validation():
    with pytest.raises(ValidationError):
        Box(lower=(0.0,), upper=(0.5,))  # a must be > 0
    with pytest.raises(ValidationError):
        Box(lower=(0.5,), upper=(0.4,))
    with pytest.raises(ValidationError):
        BoxFunction(boxes=())
    with pytest.raises(ValidationError):
        BoxFunction(boxes=(Box((0.1,), (0.2,)), Box((0.1, 0.1), (0.2, 0.2))))


def test_set_partition_counts():
    # Bell numbers 1, 2, 5, 15
    for k, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
        assert len(set_partitions(k)) == bell


def test_exact_product_formula():
    assert box_correlation_exact([(0.25, 0.5)]) == pytest.approx(math.log(2))
    got = box_correlation_exact([(0.1, 0.2), (0.3, 0.4)])
    assert got == pytest.approx(math.log(2) * math.log(4 / 3), abs=1e-15)
    assert box_correlation_exact([(0.3, 0.3)]) == 0.0
    # intervals meeting at an endpoint: the shared end carries no mass
    assert box_correlation_exact([(0.1, 0.3), (0.3, 0.6)]) == 0.7615000104188089
    got = box_correlation_exact([(0.1, 0.2), (0.2, 0.3), (0.3, 0.4)])
    assert got == pytest.approx(math.log(2) * math.log(1.5) * math.log(4 / 3), abs=1e-15)


def test_exact_formula_hypothesis_violations():
    with pytest.raises(ValidationError):
        box_correlation_exact([(0.1, 0.3), (0.2, 0.4)])  # overlap
    with pytest.raises(ValidationError):
        box_correlation_exact([(0.2, 0.6), (0.1, 0.15), (0.61, 0.9)])  # sum >= 1
    with pytest.raises(ValidationError):
        box_correlation_exact([(0.0, 0.5)])


def test_quadrature_matches_product_on_disjoint_boxes():
    for ivals in (
        [(0.25, 0.5)],
        [(0.1, 0.2), (0.3, 0.4)],
        [(0.05, 0.1), (0.15, 0.25), (0.3, 0.45)],
        [(0.1, 0.3), (0.3, 0.6)],
        [(0.001, 0.2), (0.3, 0.5), (0.21, 0.29)],
        [(0.4, 0.45), (0.002, 0.2), (0.31, 0.34)],
    ):
        eta = box(*ivals)
        want = box_correlation_exact(ivals)
        assert box_correlation_quadrature(eta) == pytest.approx(want, abs=1e-13)


def _nested_quad(ivals, budget=1.0):
    """The correlation integral by nested adaptive scipy quadrature, cut at
    the points where a later coordinate's clip switches."""
    from scipy.integrate import quad

    (a, b), rest = ivals[0], ivals[1:]
    hi = min(b, budget - sum(lo for lo, _ in rest))
    if hi <= a:
        return 0.0
    if not rest:
        return math.log(hi / a)
    kinks = sorted(p for p in (budget - sum(v) for v in itertools.product(*rest)) if a < p < hi)
    val, _ = quad(
        lambda t: _nested_quad(rest, budget - t) / t,
        a,
        hi,
        points=kinks or None,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return val


@pytest.mark.parametrize(
    "ivals",
    [
        [(0.4, 0.6), (0.5, 0.7)],  # clipped by the simplex
        [(0.1, 0.5), (0.2, 0.6)],  # overlapping and clipped
        [(0.01, 0.9), (0.01, 0.9)],
        [(0.1, 0.5), (0.2, 0.6), (0.05, 0.4)],
        [(0.02, 0.8), (0.03, 0.7), (0.01, 0.6)],
        [(0.3, 0.5), (0.3, 0.5), (0.3, 0.5)],  # only the corner below 1
        [(0.0044, 0.452), (0.0013, 0.517), (0.232, 0.556)],  # tiny lower ends
        [(0.7, 0.9), (0.2, 0.4)],  # the clip leaves nothing
    ],
)
def test_quadrature_matches_scipy_on_clipped_boxes(ivals):
    want = _nested_quad(ivals)
    assert box_correlation_quadrature(box(*ivals)) == pytest.approx(want, abs=1e-8)


def test_quadrature_chunks_agree(monkeypatch):
    from pdlab import boxes

    eta = box((0.1, 0.5), (0.2, 0.6), (0.05, 0.4))
    want = box_correlation_quadrature(eta)
    monkeypatch.setattr(boxes, "QUAD_CHUNK", 5)
    assert box_correlation_quadrature(eta) == want


def test_quadrature_node_budget():
    from pdlab import boxes
    from pdlab.errors import ResourceBudgetError

    # about 1.1e6 nodes, 0.1 s: inside the budget
    eta = box((0.05, 0.5), (0.06, 0.6), (0.07, 0.4), (0.08, 0.3))
    assert box_correlation_quadrature(eta) > 0
    # about 8.4e7 nodes, 5 s: refused before the first level
    eta = box((0.001, 0.5), (0.002, 0.6), (0.003, 0.4), (0.004, 0.3))
    assert boxes.QUAD_NODE_BUDGET < boxes._node_estimate(eta.boxes[0].intervals())
    with pytest.raises(ResourceBudgetError):
        box_correlation_quadrature(eta)


def test_quadrature_simplex_clipping():
    # [0.4, 0.6] x [0.5, 0.7] intersected with t1 + t2 <= 1 by direct 2-D sum
    eta = box((0.4, 0.6), (0.5, 0.7))
    got = box_correlation_quadrature(eta)
    n = 4000
    t1 = np.linspace(0.4, 0.6, n, endpoint=False) + 0.1 / n
    dt = 0.2 / n
    total = 0.0
    for a in t1:
        hi = min(0.7, 1.0 - a)
        if hi <= 0.5:
            continue
        # inner integral of 1/t2 over [0.5, hi], exact
        total += math.log(hi / 0.5) / a * dt
    assert got == pytest.approx(total, abs=1e-5)


def test_tuple_sum_single_item_worked_example():
    # u = 12 with eta = 1[[0.25, 0.30]**2]: the two copies of log2/log12
    # give exactly 2 ordered distinct pairs
    v = math.log(2) / math.log(12)
    values = np.array([math.log(3) / math.log(12), v, v])
    idx = np.zeros(3, dtype=np.int64)
    eta = box((0.25, 0.30), (0.25, 0.30))
    out = tuple_sum_per_item(idx, values, 1, eta)
    assert out.tolist() == [2.0]


def test_tuple_sum_overlapping_intervals_brute_force():
    rng = np.random.Generator(np.random.Philox(key=11))
    from itertools import permutations

    for trial in range(20):
        k = int(rng.integers(2, 4))
        ivals = sorted(
            (float(a), float(a) + float(b))
            for a, b in zip(rng.uniform(0.05, 0.6, k), rng.uniform(0.01, 0.3, k))
        )
        eta = box(*ivals)
        n_vals = int(rng.integers(0, 7))
        vals = rng.uniform(0.05, 0.95, n_vals)
        idx = np.zeros(n_vals, dtype=np.int64)
        got = tuple_sum_per_item(idx, vals, 1, eta)[0]
        brute = 0.0
        for tup in permutations(range(n_vals), k):
            if all(a <= vals[j] <= b for j, (a, b) in zip(tup, ivals)):
                brute += 1.0
        assert got == pytest.approx(brute, abs=1e-9), f"trial {trial}"


def test_tuple_sum_dimension_budget():
    from pdlab.errors import ResourceBudgetError

    # k = 10 runs: each item has one value in each of ten disjoint
    # intervals or misses one
    ivals = [(0.01 * (2 * i + 1), 0.01 * (2 * i + 2)) for i in range(10)]
    vals = np.array([a + 0.001 for a, _ in ivals + ivals[:9]])
    idx = np.repeat([0, 1], [10, 9])
    assert tuple_sum_per_item(idx, vals, 2, box(*ivals)).tolist() == [1.0, 0.0]
    with pytest.raises(ResourceBudgetError):
        tuple_sum_per_item(idx, vals, 2, box(*ivals, (0.5, 0.6), (0.7, 0.8)))


def test_tuple_sum_symmetry():
    # permuting the box coordinates leaves the distinct-tuple sum unchanged
    rng = np.random.Generator(np.random.Philox(key=13))
    vals = rng.uniform(0.05, 0.9, 40)
    idx = rng.integers(0, 8, 40).astype(np.int64)
    a = box((0.1, 0.35), (0.2, 0.6))
    b = box((0.2, 0.6), (0.1, 0.35))
    assert np.allclose(
        tuple_sum_per_item(idx, vals, 8, a), tuple_sum_per_item(idx, vals, 8, b)
    )


def test_weighted_boxes_are_linear():
    vals = np.array([0.3, 0.45, 0.28])
    idx = np.zeros(3, dtype=np.int64)
    eta1 = box((0.25, 0.5))
    eta2 = BoxFunction(boxes=(Box((0.25,), (0.5,), weight=2.5),))
    assert tuple_sum_per_item(idx, vals, 1, eta2)[0] == pytest.approx(
        2.5 * tuple_sum_per_item(idx, vals, 1, eta1)[0]
    )


def test_box_function_serialization_round_trip():
    eta = BoxFunction(
        boxes=(Box((0.1, 0.3), (0.2, 0.4), weight=1.5), Box((0.5, 0.5), (0.6, 0.6)))
    )
    assert BoxFunction.from_dict(eta.to_dict()) == eta
    with pytest.raises(ValidationError):
        BoxFunction.from_dict({"boxes": [{"lower": [0.1]}]})


def test_partitions_listed_once_per_box(monkeypatch):
    from pdlab import boxes, factor, pdprocess, sequences, stats

    calls = []

    def counted(k):
        calls.append(k)
        return set_partitions(k)

    monkeypatch.setattr(boxes, "set_partitions", counted)

    def eta():  # new boxes, with nothing listed yet
        return BoxFunction(
            boxes=(Box((0.1, 0.3), (0.2, 0.5)), Box((0.15, 0.25), (0.3, 0.4), weight=2.0))
        )

    # four blocks of samples, one thread
    pdprocess.corr_mc(eta(), 3 * pdprocess.BLOCK + 5, seed=1)
    assert calls == [2, 2]
    calls.clear()
    # ten blocks of members
    monkeypatch.setattr(factor, "MEMBER_BLOCK", 1000)
    stats.empirical_corr(sequences.uniform_integers(), 10**4, eta())
    assert calls == [2, 2]


def test_partitions_keep_the_meeting_ones_in_order():
    # the first two intervals meet and the third meets neither, so of the
    # five partitions in set_partitions order, ((0,), (1,), (2,)) and
    # ((0, 1), (2,)) are kept
    b = Box((0.1, 0.2, 0.5), (0.3, 0.4, 0.6))
    assert b.partitions == (
        (1.0, ((0.1, 0.3), (0.2, 0.4), (0.5, 0.6))),
        (-1.0, ((0.2, 0.3), (0.5, 0.6))),
    )
