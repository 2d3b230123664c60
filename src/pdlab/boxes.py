"""Box test functions and distinct-index tuple sums.

A test function eta is a weighted union of axis-aligned boxes in
(0, inf)^k, each box a product of closed intervals [a_i, b_i].  The
k-point correlation statistic is the sum of eta over ordered tuples of
DISTINCT indices: for an indicator box, an item's count T(I_1..I_k) of
ordered tuples of distinct entries with the i-th in I_i (the factorial
moment of its entries on the box).  The k-th entry is one of the c(I_k)
entries in I_k other than the first k - 1, and equals the j-th of them
only inside I_j & I_k, so T(I_1..I_k) = c(I_k) T(I_1..I_{k-1}) minus
T(I_1..I_j & I_k..I_{k-1}) summed over the j < k whose I_j meets I_k,
with T() = 1.  T is symmetric, so each subproblem is keyed by its sorted
intervals and computed once (``Box.steps``).  Every term is an integer
in float64: the sums are exact, in any order, while the partial
products stay below 2**53.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from pdlab.errors import ResourceBudgetError, ValidationError

# Gauss-Legendre order per sub-panel of box_correlation_quadrature: on panels
# graded by factors of 2 toward the nearest singularity it converges like
# (3 + sqrt 8)**(-2n), at rounding by n = 12
QUAD_NODES = 12
# budgets per vectorized step of the nested quadrature, which bounds its
# arrays to QUAD_CHUNK x sub-panels x QUAD_NODES values per level
QUAD_CHUNK = 1 << 12
# nodes past which box_correlation_quadrature refuses a box function: about
# a second of work at some 50 ns per node (2-vCPU x86 host); each added
# dimension multiplies the count by one level's sub-panel nodes
QUAD_NODE_BUDGET = 1 << 24
# recurrence terms a box's tuple sums may take: 11 intervals in general
# position take up to some 27 000, a staircase of 12 overlapping ones 71 679
MAX_TUPLE_TERMS = 1 << 17
# float64 values (32 MiB) the tuple sums hold per chunk of items
TUPLE_CHUNK = 1 << 22


@dataclass(frozen=True)
class Box:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValidationError("box needs matching nonempty lower/upper vectors")
        if not all(math.isfinite(v) for v in (*self.lower, *self.upper, self.weight)):
            raise ValidationError(f"box coordinates and weight must be finite, got {self}")
        for a, b in zip(self.lower, self.upper):
            if not 0 < a < b:
                raise ValidationError(
                    f"box coordinates must satisfy 0 < a < b, got [{a}, {b}]"
                )

    @property
    def k(self) -> int:
        return len(self.lower)

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.lower, self.upper))

    @functools.cached_property
    def steps(self) -> tuple:
        """The tuple-sum recurrence (``_recurrence``), built once per box."""
        return _recurrence(self.intervals())


@dataclass(frozen=True)
class BoxFunction:
    """eta = sum of weight * indicator(box), all boxes of one dimension k."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise ValidationError("a BoxFunction needs at least one box")
        k = self.boxes[0].k
        if any(b.k != k for b in self.boxes):
            raise ValidationError("all boxes must share the same dimension")

    @property
    def k(self) -> int:
        return self.boxes[0].k

    @property
    def alpha(self) -> float:
        """Support lower bound: the smallest interval endpoint."""
        return min(min(b.lower) for b in self.boxes)

    @staticmethod
    def from_dict(d: dict) -> "BoxFunction":
        try:
            boxes = tuple(
                Box(
                    lower=tuple(float(v) for v in b["lower"]),
                    upper=tuple(float(v) for v in b["upper"]),
                    weight=float(b.get("weight", 1.0)),
                )
                for b in d["boxes"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed box function: {exc}") from exc
        return BoxFunction(boxes=boxes)


def box(*intervals, weight: float = 1.0) -> BoxFunction:
    """Convenience: a single indicator box from (a, b) interval pairs."""
    lower = tuple(float(a) for a, _ in intervals)
    upper = tuple(float(b) for _, b in intervals)
    return BoxFunction(boxes=(Box(lower=lower, upper=upper, weight=weight),))


def check_tuple_budget(eta: BoxFunction) -> None:
    """ResourceBudgetError, before any tuple sum runs, when a box of eta
    takes more than MAX_TUPLE_TERMS recurrence terms: each box builds its
    steps here, and stops at the budget."""
    for b in eta.boxes:
        b.steps  # noqa: B018 -- built and cached, or refused


def _recurrence(ivals) -> tuple:
    """The recurrence's steps (interval, prefix, ((subproblem, multiplicity),
    ...)): T = c(interval) T[prefix] less the sum of multiplicity x
    T[subproblem], indexing the steps after T[0] = T() = 1.

    A key peels its last interval (a, b), whose lower end is the largest,
    so an earlier (lo, hi) meets it when hi >= a, in (a, min(hi, b)).  The
    keys are found one length at a time from the box's down, with no
    recursion, and stepped shortest first, so the box's own is the last.
    """
    levels, terms = [{tuple(sorted(ivals)): None}], 0
    for _ in ivals:
        below = {}
        for key in levels[-1]:
            *rest, (a, b) = key
            minus = collections.Counter(
                tuple(sorted(rest[:j] + [(a, min(hi, b))] + rest[j + 1 :]))
                for j, (_, hi) in enumerate(rest)
                if hi >= a
            )
            levels[-1][key] = ((a, b), tuple(rest), minus)
            below.update(dict.fromkeys([tuple(rest), *minus]))
            terms += 1 + len(minus)
            if terms > MAX_TUPLE_TERMS:
                raise ResourceBudgetError(
                    f"the tuple sums over a box of {len(ivals)} intervals take more than"
                    f" {MAX_TUPLE_TERMS} recurrence terms, the budget"
                )
        levels.append(below)
    index, steps = {(): 0}, []
    for level in reversed(levels[:-1]):
        for key, (ival, prefix, minus) in level.items():
            steps.append((ival, index[prefix], tuple((index[k], m) for k, m in minus.items())))
            index[key] = len(steps)
    return tuple(steps)


def tuple_sum_per_item(
    item_idx: np.ndarray, values: np.ndarray, n_items: int, eta: BoxFunction
) -> np.ndarray:
    """Distinct-index tuple sum of eta for each item.

    ``values`` holds all point coordinates (spectrum entries or PD
    entries), ``item_idx`` maps each value to its item.  Every value of
    the item at or above eta's support lower bound must be present.  Each
    box steps its recurrence (``Box.steps``: built once, and past
    ``check_tuple_budget`` a ResourceBudgetError) over the items' counts
    per interval, in chunks of items that hold TUPLE_CHUNK values at most.
    """
    steps = [b.steps for b in eta.boxes]
    held = 1 + max(map(len, steps)) + len({step[0] for box_steps in steps for step in box_steps})
    width = max(1, TUPLE_CHUNK // held)
    if width < n_items:
        order = np.argsort(item_idx)
        item_idx, values = item_idx[order], values[order]
    out = np.zeros(n_items, dtype=np.float64)
    for start in range(0, n_items, width):
        n = min(width, n_items - start)
        idx, val = item_idx, values
        if width < n_items:
            lo, hi = np.searchsorted(item_idx, (start, start + n))
            idx, val = item_idx[lo:hi] - start, values[lo:hi]
        counts: dict[tuple[float, float], np.ndarray] = {}
        for b in eta.boxes:
            t = [1.0]
            for (a, z), prefix, minus in b.steps:
                if (a, z) not in counts:
                    sel = (val >= a) & (val <= z)
                    counts[a, z] = np.bincount(idx[sel], minlength=n).astype(np.float64)
                # a step on T() = 1 has one interval, so nothing to subtract
                v = counts[a, z] * t[prefix] if prefix else counts[a, z]
                for j, m in minus:
                    v -= t[j] if m == 1 else m * t[j]
                t.append(v)
            out[start : start + n] += b.weight * t[-1]
    return out


def box_correlation_exact(intervals) -> float:
    """Poisson-Dirichlet correlation mass of a product of disjoint intervals.

    Valid when the intervals are pairwise disjoint or touch only at an
    endpoint, are contained in (0, 1], and the upper endpoints sum below
    1; the value is then exactly prod log(b_i / a_i).  A shared endpoint
    is a null set of the correlation measure (it has a density), so
    touching intervals take the product formula too; only an empirical
    count, where an entry can sit exactly on the shared end (log q**3 /
    log q**10 = 0.3), sees the difference.
    """
    ivals = [(float(a), float(b)) for a, b in intervals]
    if not ivals:
        raise ValidationError("need at least one interval")
    for a, b in ivals:
        if not 0 < a <= b <= 1:
            raise ValidationError(f"interval [{a}, {b}] not contained in (0, 1]")
    for i in range(len(ivals)):
        for j in range(i + 1, len(ivals)):
            if max(ivals[i][0], ivals[j][0]) < min(ivals[i][1], ivals[j][1]):
                raise ValidationError(f"intervals {ivals[i]} and {ivals[j]} overlap")
    if sum(b for _, b in ivals) >= 1:
        raise ValidationError("upper endpoints must sum below 1")
    return float(np.prod([math.log(b / a) for a, b in ivals]))


def box_correlation_quadrature(eta: BoxFunction) -> float:
    """Deterministic quadrature of the PD correlation integral.

    Integrates 1[t_1 + .. + t_k <= 1] / (t_1 .. t_k) over eta by nested
    fixed-order Gauss-Legendre, with the simplex clip folded into the
    inner limits (see _clipped_mass).  Independent of both the product
    formula and the Monte Carlo estimator.  Raises ResourceBudgetError,
    before any level runs, when the estimated node count passes
    QUAD_NODE_BUDGET.
    """
    nodes = sum(_node_estimate(b.intervals()) for b in eta.boxes)
    if nodes > QUAD_NODE_BUDGET:
        raise ResourceBudgetError(
            f"box quadrature needs about {nodes} nodes, more than its budget of {QUAD_NODE_BUDGET}"
        )
    one = np.ones(1)
    return sum(b.weight * float(_clipped_mass(b.intervals(), one)[0]) for b in eta.boxes)


def _clipped_mass(ivals, budget: np.ndarray) -> np.ndarray:
    """For each budget s, the integral of 1 / (t_1 .. t_k) over the box
    ivals cut to t_1 + .. + t_k <= s.

    The first coordinate t runs over [a, min(b, s - later lower ends)].
    The integrand, t -> _clipped_mass(later, s - t) / t, is piecewise
    analytic: it switches form where s - t passes a vertex sum of the
    later intervals (each taking its lower or upper end), so the range is
    cut there.  A piece's integrand is singular at t = 0 and where a later
    coordinate's range shrinks to a point, which comes as near as the
    smallest lower end m to the piece; so each piece is cut again by
    factors of 2 toward both of its ends, from a first step of m, and
    every sub-panel takes QUAD_NODES nodes.
    """
    if budget.size > QUAD_CHUNK:
        parts = range(0, budget.size, QUAD_CHUNK)
        return np.concatenate([_clipped_mass(ivals, budget[i : i + QUAD_CHUNK]) for i in parts])
    (a, b), rest = ivals[0], ivals[1:]
    if not rest:
        return np.log(np.maximum(np.minimum(b, budget), a) / a)
    row, lo, up = _sub_panels(ivals, budget)
    xg, wg = leggauss(QUAD_NODES)
    half = (up - lo)[:, None] / 2
    t = (up + lo)[:, None] / 2 + half * xg
    inner = _clipped_mass(rest, (budget[row, None] - t).ravel()).reshape(t.shape)
    return np.bincount(row, (inner * half * wg / t).sum(axis=1), minlength=budget.size)


def _sub_panels(ivals, budget: np.ndarray):
    """The first coordinate's sub-panels for each budget s, as (row, lo, up):
    its range [a, min(b, s - later lower ends)] cut at the vertex sums of
    the later intervals, each piece graded by factors of 2 toward both
    ends, empty panels dropped."""
    (a, b), rest = ivals[0], ivals[1:]
    hi = np.maximum(np.minimum(b, budget - sum(lo for lo, _ in rest)), a)
    vertices = [budget - sum(v) for v in itertools.product(*rest)]
    cuts = np.column_stack([np.full_like(budget, a), *vertices, hi])
    cuts = np.sort(np.clip(cuts, a, hi[:, None]), axis=1)
    left, right = cuts[:, :-1, None], cuts[:, 1:, None]
    mid = (left + right) / 2
    m = min(lo for lo, _ in ivals)
    steps = m * 2.0 ** np.arange(max(math.ceil(math.log2((b - a) / m)), 0) + 1)
    edges = np.concatenate(
        [left, np.minimum(left + steps, mid), np.maximum(right - steps[::-1], mid), right], axis=2
    )
    lo, up = edges[..., :-1], edges[..., 1:]
    keep = up > lo
    row = np.broadcast_to(np.arange(budget.size)[:, None, None], lo.shape)[keep]
    return row, lo[keep], up[keep]


def _node_estimate(ivals) -> int:
    """Nodes and vertex sums the nested quadrature of one box evaluates,
    counted level by level at the largest budget each level can get (1
    less the lower ends before it); within a factor of about 2 of the true
    count, and given up once past QUAD_NODE_BUDGET."""
    total, per_row, budget = 0, 1, 1.0
    for i in range(len(ivals) - 1):
        total += per_row << (len(ivals) - 1 - i)
        if total > QUAD_NODE_BUDGET:
            break
        per_row *= _sub_panels(ivals[i:], np.array([budget]))[1].size * QUAD_NODES
        total += per_row
        budget -= ivals[i][0]
    return total
