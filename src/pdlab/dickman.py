"""Numerical Dickman function rho and the marginal CDF of the largest part.

rho satisfies rho(u) = 1 on (0, 1] and the delay relation
u rho'(u) = -rho(u - 1), equivalently rho(u) = (1/u) * integral of rho
over [u-1, u].  The table is built panel by panel on unit intervals
[k, k+1] by Gauss-Legendre collocation, each panel from the one before
it, in order, the first time a query needs it; aligning panels to the integer
breakpoints keeps full accuracy at the derivative kinks.  Each panel is
stored as a Legendre series, so point queries are spectral-accuracy
interpolations (well past the 1e-10 target; a cubic-on-grid scheme was
considered and discarded as strictly worse at equal cost).
"""

from __future__ import annotations

import csv

import numpy as np
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import leggauss

from pdlab.errors import ResourceBudgetError, ValidationError
from pdlab.sequences import MAX_DENSE_X

DEFAULT_U_MAX = 20
DEFAULT_NODES = 40
# every panel up to u_max = 100 reaches its fixed point within 28 iterations
# at the default order; past the cap a panel must have stalled at rounding
MAX_FIXED_POINT_ITERATIONS = 400
# values per Legendre call in rho_vec, so the Clenshaw temporaries stay in cache
RHO_CHUNK = 1 << 15


class RhoTable:
    """rho on (0, u_max], strictly decreasing past 1, 0 < rho <= 1."""

    def __init__(self, u_max: int = DEFAULT_U_MAX, nodes: int = DEFAULT_NODES):
        if u_max < 2:
            raise ValidationError(f"u_max must be >= 2, got {u_max}")
        if u_max > 200:
            raise ResourceBudgetError(f"u_max={u_max} beyond the table budget")
        if nodes < 8:
            raise ValidationError(f"need at least 8 quadrature nodes, got {nodes}")
        self.u_max = u_max
        self.nodes = nodes
        self._panels: list[Legendre] = []

    def _panel(self, k: int) -> Legendre:
        """Panel k, on [k, k+1]; the panels up to k are built in order the
        first time one of them is needed."""
        while len(self._panels) < k:
            self._panels.append(_next_panel(self._panels, self.nodes))
        return self._panels[k - 1]

    def rho(self, u: float) -> float:
        return float(self.rho_vec(u))

    def cdf_l1(self, c: float) -> float:
        """P(L1 <= c) = rho(1/c) for c in (0, 1]."""
        if not 0 < c <= 1:
            raise ValidationError(f"cdf_l1 requires c in (0, 1], got {c}")
        return self.rho(1.0 / c)

    def rho_vec(self, u: np.ndarray) -> np.ndarray:
        """rho at every value of u, each by its panel's series, in one pass.

        The values are grouped by panel with a stable sort of their small
        integer panel index, so each panel's series runs once per chunk of
        RHO_CHUNK values; every value gets the bits of a direct call.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.size and not u.min() > 0:  # NaN fails too
            raise ValidationError(f"rho requires u > 0, got {u.min()}")
        if u.size and u.max() > self.u_max:
            raise ResourceBudgetError(
                f"u={u.max()} is out of table (u_max={self.u_max}); extend the table"
            )
        flat = u.ravel()
        out = np.ones_like(flat)
        # panel k covers [k, k+1], the last one also u_max; 0 marks u <= 1
        k = np.where(flat > 1, np.clip(np.floor(flat), 1, self.u_max - 1), 0).astype(np.uint8)
        order = np.argsort(k, kind="stable")
        counts = np.bincount(k, minlength=self.u_max)
        start = np.cumsum(counts) - counts
        for panel in range(1, int(k.max(initial=0)) + 1):
            idx = order[start[panel] : start[panel] + counts[panel]]
            for lo in range(0, idx.size, RHO_CHUNK):
                sel = idx[lo : lo + RHO_CHUNK]
                out[sel] = self._panel(panel)(flat[sel])
        return out.reshape(u.shape)

    def mean_l1(self) -> float:
        """E[L1] = 1 - integral of rho(t)/t**2 over t >= 1 (Golomb-Dickman).

        From E[L1] = integral of (1 - P(L1 <= c)) dc with P(L1 <= c) =
        rho(1/c).  Gauss-Legendre of the table's order on each unit panel
        integrates its series against the smooth 1/t**2 to rounding; past
        u_max the tail is below rho(u_max)/u_max.
        """
        xg, wg = leggauss(self.nodes)
        t = np.arange(1, self.u_max)[:, None] + (xg + 1.0) / 2.0
        return float(1.0 - np.sum(self.rho_vec(t) / (t * t) * (wg / 2.0)))

    def dump_csv(self, path, step: float = 0.01) -> None:
        """Write the table as CSV columns u, rho(u) for plot tooling.

        The grid is held whole, one float64 per row as a dense member set
        holds one integer per member, so past the same cap, MAX_DENSE_X
        rows, it raises ResourceBudgetError before any array or file.
        """
        if not 0 < step <= self.u_max:
            raise ValidationError(f"step must be in (0, u_max = {self.u_max}], got {step}")
        if self.u_max / step > MAX_DENSE_X:
            raise ResourceBudgetError(
                f"a step of {step} to u_max = {self.u_max} exceeds {MAX_DENSE_X} rows"
            )
        grid = np.arange(step, self.u_max + step / 2, step)
        grid = grid[grid <= self.u_max]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["u", "rho"])
            for u, r in zip(grid, self.rho_vec(grid)):
                w.writerow([f"{u:.6f}", f"{r:.12e}"])


def _next_panel(panels: list[Legendre], nodes: int) -> Legendre:
    """The panel after the built ones, k = len(panels) + 1 on [k, k+1],
    from the panel before it (rho = 1 on [0, 1] for k = 1)."""
    k = len(panels) + 1
    prev = panels[-1] if panels else None  # panel on [k-1, k]
    xg, _ = leggauss(nodes)
    t = k + (xg + 1.0) / 2.0  # collocation points inside [k, k+1]
    if prev is None:
        i1 = 2.0 - t  # integral of 1 over [t-1, 1]
    else:
        anti = prev.integ()
        i1 = anti(float(k)) - anti(t - 1.0)
    y = np.full(nodes, 1.0 if prev is None else prev(float(k)))
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        series = Legendre.fit(t, y, deg=nodes - 1, domain=[k, k + 1])
        anti = series.integ()
        y_new = (i1 + anti(t) - anti(float(k))) / t
        step = np.max(np.abs(y_new - y))
        y = y_new
        if step < 1e-16:
            break
    else:
        # near rho = 1 an ulp exceeds 1e-16, and some orders (12, 48, ..)
        # stall there a rounding step apart; anything larger is a failure
        if step > 4 * np.finfo(float).eps * np.max(np.abs(y)):
            raise AssertionError(
                f"rho panel [{k}, {k + 1}] did not converge in "
                f"{MAX_FIXED_POINT_ITERATIONS} iterations (last step {step:.3g})"
            )
    return Legendre.fit(t, y, deg=nodes - 1, domain=[k, k + 1])


_default: RhoTable | None = None


def default_table() -> RhoTable:
    """Shared lazily-built table on (0, 20]."""
    global _default
    if _default is None:
        _default = RhoTable()
    return _default


def rho(u: float) -> float:
    return default_table().rho(u)


def cdf_l1(c: float) -> float:
    return default_table().cdf_l1(c)
