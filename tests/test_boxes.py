"""Box test functions: exact correlation values, quadrature, tuple sums."""

import itertools
import math
import time

import numpy as np
import pytest

from pdlab.boxes import (
    Box,
    BoxFunction,
    box,
    box_correlation_exact,
    box_correlation_quadrature,
    tuple_sum_per_item,
)
from pdlab.errors import ResourceBudgetError, ValidationError


def set_partitions(k: int):
    """All Bell(k) partitions of {0, .., k-1} as tuples of blocks: each
    partition of {0, .., m-1} gives m as a block of its own, then m
    joined to each of its blocks in turn."""
    out = [((0,),)]
    for m in range(1, k):
        grown = []
        for part in out:
            grown.append(part + ((m,),))
            for i, blk in enumerate(part):
                grown.append(part[:i] + (blk + (m,),) + part[i + 1 :])
        out = grown
    return out


def filtered_partitions(b: Box):
    """Every set partition of the full enumeration whose blocks'
    intervals all meet, as (sign, intersections): the product of the
    blocks' Moebius weights (-1)**(|B|-1) (|B|-1)! and each block's
    common interval."""
    ivals = b.intervals()
    out = []
    for part in set_partitions(b.k):
        inters, sign = [], 1.0
        for blk in part:
            lo = max(ivals[i][0] for i in blk)
            hi = min(ivals[i][1] for i in blk)
            if lo > hi:
                break
            inters.append((lo, hi))
            sign *= (-1.0) ** (len(blk) - 1) * math.factorial(len(blk) - 1)
        else:
            out.append((sign, tuple(inters)))
    return tuple(out)


def reference_tuple_sum(item_idx, values, n_items, eta):
    """The distinct-index tuple sums as the signed sum, over the meeting
    set partitions, of the products of the blocks' interval counts."""
    out = np.zeros(n_items)
    for b in eta.boxes:
        acc = np.zeros(n_items)
        for sign, inters in filtered_partitions(b):
            term = None
            for lo, hi in inters:
                sel = (values >= lo) & (values <= hi)
                c = np.bincount(item_idx[sel], minlength=n_items).astype(np.float64)
                term = c if term is None else term * c
            acc += sign * term
        out += b.weight * acc
    return out


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
    from pdlab import boxes

    # the reference enumeration lists the Bell numbers 1, 2, 5, 15, 52; the
    # recurrence over k identical or k disjoint intervals takes one step
    # per length, k identical ones subtracting the shorter key k - 1 times
    for k, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert len(set_partitions(k)) == bell
        steps = box(*[(0.1, 0.2)] * k).boxes[0].steps
        assert [minus for _, _, minus in steps] == [((j, j),) if j else () for j in range(k)]
        disjoint = box(*[(0.1 * i + 0.01, 0.1 * i + 0.05) for i in range(k)]).boxes[0]
        assert [minus for _, _, minus in disjoint.steps] == [()] * k
    # the sizes of the recurrence, counting T() = 1, against the meeting
    # partitions: 11 identical intervals take 12 subproblems for 678 570
    # partitions, a chain of 12 touching ones 24 for 233
    chain = [(0.01 * (i + 1), 0.01 * (i + 2)) for i in range(12)]
    for ivals, size in (([(0.1, 0.2)] * 11, 12), (chain, 24),
                        ([(0.1, 0.2)] * 7 + [(0.3, 0.4)] * 7, 15)):
        assert 1 + len(boxes._recurrence(ivals)) == size


def random_box(rng, k: int) -> Box:
    """k intervals on a grid of 0.01, so that ends coincide often: some
    repeat the previous interval, some start where it ends, some are
    nested in it, the rest fall anywhere."""
    ivals = []
    for _ in range(k):
        r = rng.random()
        if ivals and r < 0.15:
            ivals.append(ivals[-1])
        elif ivals and r < 0.3:
            a = ivals[-1][1]
            ivals.append((a, round(a + 0.01 * int(rng.integers(1, 20)), 2)))
        elif ivals and r < 0.45 and ivals[-1][1] - ivals[-1][0] > 0.015:
            a, b = ivals[-1]
            ivals.append((round(a + 0.005, 3), round(b - 0.005, 3)))
        else:
            a = 0.01 * int(rng.integers(1, 60))
            ivals.append((round(a, 2), round(a + 0.01 * int(rng.integers(1, 30)), 2)))
    return Box(tuple(a for a, _ in ivals), tuple(b for _, b in ivals))


def test_tuple_sums_equal_the_filtered_full_enumeration():
    # overlapping, nested, identical and touching intervals: the recurrence
    # gives the signed sum over the meeting set partitions to the bit
    rng = np.random.Generator(np.random.Philox(key=26))
    values = np.round(rng.uniform(0.0, 0.9, 400), 2)  # on the grid, so on the ends too
    idx = rng.integers(0, 40, values.size)
    for trial in range(300):
        b = random_box(rng, 1 + trial % 8)
        eta = BoxFunction(boxes=(b, Box(b.lower, b.upper, weight=-1.5)))
        got = tuple_sum_per_item(idx, values, 40, eta)
        want = reference_tuple_sum(idx, values, 40, eta)
        assert got.tobytes() == want.tobytes(), f"trial {trial}: {b.intervals()}"


def test_chunks_of_items_agree(monkeypatch):
    # a box whose steps pass the chunk's values takes the items in sorted
    # chunks, one item each at the extreme, with the same bits
    from pdlab import boxes

    rng = np.random.Generator(np.random.Philox(key=29))
    values = np.round(rng.uniform(0.0, 0.9, 600), 2)
    idx = rng.integers(0, 50, values.size)
    eta = BoxFunction(boxes=(random_box(rng, 6), random_box(rng, 6)))
    want = tuple_sum_per_item(idx, values, 50, eta)
    for chunk in (1, 97, 1000):
        monkeypatch.setattr(boxes, "TUPLE_CHUNK", chunk)
        assert tuple_sum_per_item(idx, values, 50, eta).tobytes() == want.tobytes()


def test_identical_intervals_give_falling_factorials():
    # an item with c entries in the interval has (c)_k = c (c - 1) .. (c - k + 1)
    # ordered k-tuples of distinct ones
    c = np.arange(16)
    values = np.concatenate([np.full(n, 0.15) for n in c] + [np.full(20, 0.3)])
    idx = np.concatenate([np.repeat(c, c), np.zeros(20, dtype=np.int64)])
    for k in (12, 13):
        want = [float(math.perm(n, k)) for n in c]
        assert tuple_sum_per_item(idx, values, c.size, box(*[(0.1, 0.2)] * k)).tolist() == want


def _injections(vals, ivals) -> int:
    """Ordered tuples of distinct entries with the i-th in the i-th interval:
    the assignments of the intervals to distinct entries, counted by
    placing the entries one by one over the sets of intervals filled."""
    ways = {0: 1}
    for v in vals:
        for filled, n in list(ways.items()):
            for i, (a, b) in enumerate(ivals):
                if not filled >> i & 1 and a <= v <= b:
                    ways[filled | 1 << i] = ways.get(filled | 1 << i, 0) + n
    return ways.get((1 << len(ivals)) - 1, 0)


def test_long_boxes_brute_force():
    # a chain of 12 touching intervals, past the parent's Bell(12) bound, and
    # two groups of 7 identical ones, past Bell(7)**2: the counts of the
    # injective assignments, with entries on the shared ends too; a box of
    # 3 intervals checks the assignment count against the permutations
    rng = np.random.Generator(np.random.Philox(key=12))
    chain = [(0.01 * (i + 1), 0.01 * (i + 2)) for i in range(12)]
    groups = [(0.1, 0.2)] * 7 + [(0.3, 0.4)] * 7
    short = [(0.1, 0.3), (0.2, 0.4), (0.3, 0.35)]
    for ivals, grid in ((chain, 0.01 * np.arange(1, 14)), (groups, [0.1, 0.15, 0.2, 0.3, 0.4]),
                        (short, [0.1, 0.2, 0.3, 0.35])):
        sizes = rng.integers(len(ivals) - 1, len(ivals) + 4, 6)
        vals = [np.round(rng.choice(grid, n), 2) for n in sizes]
        idx = np.repeat(np.arange(sizes.size), sizes)
        got = tuple_sum_per_item(idx, np.concatenate(vals), sizes.size, box(*ivals))
        assert got.tolist() == [_injections(v, ivals) for v in vals], ivals
    for v in vals:
        assert _injections(v, short) == sum(
            all(a <= v[j] <= b for j, (a, b) in zip(tup, short))
            for tup in itertools.permutations(range(v.size), len(short))
        )


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


def test_tuple_sum_dimension_budget(monkeypatch):
    from pdlab import boxes, pdprocess, sequences, stats

    # disjoint boxes of any k run, one step per interval: each item has
    # one value in each of the disjoint intervals or misses one
    for k in (10, 13, 2000):
        ivals = [(1e-4 * (2 * i + 1), 1e-4 * (2 * i + 2)) for i in range(k)]
        vals = np.array([a + 1e-5 for a, _ in ivals + ivals[:-1]])
        idx = np.repeat([0, 1], [k, k - 1])
        assert tuple_sum_per_item(idx, vals, 2, box(*ivals)).tolist() == [1.0, 0.0]
    # within the budget: 12 identical intervals, a chain of 12 touching
    # ones and two groups of 7, which the partition listing refused
    for ivals in ([(0.1, 0.2)] * 12, [(0.01 * (i + 1), 0.01 * (i + 2)) for i in range(12)],
                  [(0.1, 0.2)] * 7 + [(0.3, 0.4)] * 7):
        boxes.check_tuple_budget(box(*ivals))

    # a staircase of 13 overlapping intervals takes more than 2**17 terms:
    # refused at once, with nothing enumerated or drawn
    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the recurrence budget")

    monkeypatch.setattr(stats, "_spectrum_blocks", forbidden)
    monkeypatch.setattr(pdprocess, "_stick_rounds", forbidden)
    eta = box(*[(0.1 + 0.01 * i, 0.3 + 0.01 * i) for i in range(13)])
    for run in (lambda: tuple_sum_per_item(idx, vals, 2, eta),
                lambda: stats.empirical_corr(sequences.uniform_integers(), 10**6, eta),
                lambda: pdprocess.corr_mc(eta, 10**6, seed=0)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="recurrence terms"):
            run()
        assert time.perf_counter() - t0 < 5.0


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


def test_box_function_from_dict():
    eta = BoxFunction(
        boxes=(Box((0.1, 0.3), (0.2, 0.4), weight=1.5), Box((0.5, 0.5), (0.6, 0.6)))
    )
    raw = {
        "boxes": [
            {"lower": [0.1, 0.3], "upper": [0.2, 0.4], "weight": 1.5},
            {"lower": [0.5, 0.5], "upper": [0.6, 0.6]},
        ]
    }
    assert BoxFunction.from_dict(raw) == eta
    with pytest.raises(ValidationError):
        BoxFunction.from_dict({"boxes": [{"lower": [0.1]}]})


@pytest.mark.parametrize(
    "lower, upper, weight",
    [
        ((0.1,), (0.3,), math.nan),
        ((0.1,), (0.3,), math.inf),
        ((0.1,), (0.3,), -math.inf),
        ((0.1, 0.2), (0.3, math.inf), 1.0),
        ((math.nan,), (0.3,), 1.0),
    ],
)
def test_box_refuses_non_finite_numbers(lower, upper, weight):
    with pytest.raises(ValidationError, match="finite"):
        Box(lower, upper, weight)


def test_steps_built_once_per_box(monkeypatch):
    from pdlab import boxes, factor, pdprocess, sequences, stats

    calls = []
    build = boxes._recurrence

    def counted(ivals):
        calls.append(len(ivals))
        return build(ivals)

    monkeypatch.setattr(boxes, "_recurrence", counted)

    def eta():  # new boxes, with no steps built yet
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
