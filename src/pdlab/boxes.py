"""Box test functions and distinct-index tuple sums.

A test function eta is a weighted union of axis-aligned boxes in
(0, inf)^k, each box a product of closed intervals [a_i, b_i].  The
k-point correlation statistic is the sum of eta over ordered tuples of
DISTINCT indices; for indicator boxes it reduces to products of per-item
interval counts, combined over set partitions (indices falling in a
shared block must land in the intersection interval, with the usual
(-1)^(|B|-1) (|B|-1)! Moebius weight).  Only the partitions whose
blocks' intervals meet contribute, and only those are listed
(``Box.partitions``): at most the product of Bell(size) over the box's
groups of overlapping intervals, which ``check_tuple_budget`` bounds
before anything is listed.
"""

from __future__ import annotations

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
# partitions a box may list for the distinct-index tuple sums, once per
# box: Bell(11) = 678 570, the listing of 11 identical intervals, takes
# some 7 s and 450 MiB (2-vCPU x86 host); Bell(12) = 4 213 597 some six
# times that
MAX_PARTITIONS = 678_570


@dataclass(frozen=True)
class Box:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValidationError("box needs matching nonempty lower/upper vectors")
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
    def partitions(self) -> tuple[tuple[float, tuple[tuple[float, float], ...]], ...]:
        """The set partitions of the coordinates whose blocks' intervals
        all meet (``_meeting_partitions``).  Listed once per box, after
        ``check_tuple_budget``, and read by every tuple sum over it."""
        check_tuple_budget(BoxFunction((self,)))
        return _meeting_partitions(self.intervals())


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

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "boxes": [
                {"lower": list(b.lower), "upper": list(b.upper), "weight": b.weight}
                for b in self.boxes
            ],
        }

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
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed box function: {exc}") from exc
        return BoxFunction(boxes=boxes)


def box(*intervals, weight: float = 1.0) -> BoxFunction:
    """Convenience: a single indicator box from (a, b) interval pairs."""
    lower = tuple(float(a) for a, _ in intervals)
    upper = tuple(float(b) for _, b in intervals)
    return BoxFunction(boxes=(Box(lower=lower, upper=upper, weight=weight),))


def check_tuple_budget(eta: BoxFunction) -> None:
    """ResourceBudgetError when a box of eta may list more than
    MAX_PARTITIONS set partitions, the product of Bell(size) over its
    groups of overlapping intervals, before any is listed."""
    for b in eta.boxes:
        groups = _group_sizes(b.intervals())
        # Bell(12) alone passes the budget, so no larger Bell number is needed
        if math.prod(_bell(min(n, 12)) for n in groups) > MAX_PARTITIONS:
            bells = " x ".join(f"Bell({n})" for n in groups if n > 1)
            raise ResourceBudgetError(
                f"a box's tuple sums may list {bells} set partitions over its groups of"
                f" overlapping intervals, more than the budget of {MAX_PARTITIONS}"
            )


def _group_sizes(ivals) -> list[int]:
    """The sizes of the connected groups of intervals, two joined when
    they meet (touching included).  A block of a listed partition lies
    within one group, so a box lists at most the product of Bell(size)."""
    sizes, reach = [], -math.inf
    for a, b in sorted(ivals):
        if a > reach:
            sizes.append(0)
        sizes[-1] += 1
        reach = max(reach, b)
    return sizes


def _meeting_partitions(ivals):
    """The set partitions of the intervals' indices whose blocks'
    intervals all meet, each as (sign, intersections): the product of the
    blocks' Moebius weights (-1)**(|B|-1) (|B|-1)! and each block's
    common interval.

    Grown index by index: index m opens a block of its own, then joins
    each block, in order, whose common interval it meets.  Every subset
    of a meeting block meets, so this lists the meeting partitions among
    all Bell(k) in the order of the full enumeration (m alone, then m
    joined to each block in turn, for each partition of the first m
    indices), and with the same float intersections and signs.
    """
    parts = [()]
    for a, b in ivals:
        grown = []
        for part in parts:
            grown.append(part + ((a, b, 1),))
            for i, (lo, hi, size) in enumerate(part):
                lo, hi = max(lo, a), min(hi, b)
                if lo <= hi:
                    grown.append(part[:i] + ((lo, hi, size + 1),) + part[i + 1 :])
        parts = grown
    out = []
    for part in parts:
        sign = 1.0
        for _, _, size in part:
            sign *= (-1.0) ** (size - 1) * math.factorial(size - 1)
        out.append((sign, tuple((lo, hi) for lo, hi, _ in part)))
    return tuple(out)


def _bell(n: int) -> int:
    """The Bell number B(n), the first entry of row n of the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def tuple_sum_per_item(
    item_idx: np.ndarray, values: np.ndarray, n_items: int, eta: BoxFunction
) -> np.ndarray:
    """Distinct-index tuple sum of eta for each item.

    ``values`` holds all point coordinates (spectrum entries or PD
    entries), ``item_idx`` maps each value to its item.  Every value of
    the item at or above eta's support lower bound must be present.  Each
    box's set partitions come from its ``partitions``, listed on the first
    call and reused by every later one (each block of members or samples);
    a box past ``check_tuple_budget`` raises ResourceBudgetError there.
    """
    out = np.zeros(n_items, dtype=np.float64)
    count_cache: dict[tuple[float, float], np.ndarray] = {}

    def counts(interval):
        if interval not in count_cache:
            lo, hi = interval
            sel = (values >= lo) & (values <= hi)
            count_cache[interval] = np.bincount(
                item_idx[sel], minlength=n_items
            ).astype(np.float64)
        return count_cache[interval]

    for b in eta.boxes:
        acc = np.zeros(n_items, dtype=np.float64)
        for sign, inters in b.partitions:
            term = counts(inters[0])
            for inter in inters[1:]:
                term = term * counts(inter)
            acc += sign * term
        out += b.weight * acc
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
