"""Experiment report records and their JSON/CSV serialization, and the
estimates they carry: a mean from block moments, or a frequency such
as the hit count of a joint cdf.

Every report embeds the full configuration it was produced from, so any
report can be re-run from itself.  The JSON payload is written with
sorted keys and leaves out wall_time, so it is byte-identical for a fixed
seed and configuration, regardless of thread count.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from pdlab.errors import ValidationError

SCHEMA_VERSION = 1


def moments(values) -> tuple[int, float, float]:
    """(n, sum x, sum (x - mean)**2) of a nonempty sample: the block
    summary that ``Estimate.mean`` combines.  The sums are numpy's
    pairwise sums, as in np.mean and np.var."""
    values = np.asarray(values, dtype=np.float64)
    total = float(np.sum(values))
    dev = values - total / values.size
    dev *= dev  # in place: one temporary the size of values, not two
    return values.size, total, float(np.sum(dev))


def joint_cdf_thresholds(c) -> list[float]:
    """The thresholds c_1, .., c_k of a joint cdf, given as one number or a
    list of them, as a list of floats; ValidationError unless they are a
    nonempty vector in (0, 1]."""
    if isinstance(c, numbers.Real):
        c = [c]
    try:
        c = [float(v) for v in c]
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"thresholds must be a number or a list of numbers, got {c!r}"
        ) from exc
    if not c or any(not 0 < v <= 1 for v in c):
        raise ValidationError("thresholds must be a nonempty vector in (0, 1]")
    return c


def joint_cdf_hits(top: np.ndarray, c) -> int:
    """The rows of top with top[:, j] <= c[j] for every threshold: the hit
    count of the joint cdf P(L_1 <= c_1, .., L_k <= c_k), for members
    and PD samples alike.  One compare per column, ANDed into one mask."""
    hit = top[:, 0] <= c[0]
    for j in range(1, len(c)):
        hit &= top[:, j] <= c[j]
    return int(np.count_nonzero(hit))


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n: int

    @classmethod
    def mean(cls, parts) -> Estimate:
        """The mean of a sample given as block ``moments``, with its standard
        error sqrt(var / n).

        Blocks are combined in the order given, by the pairwise update of
        Chan, Golub and LeVeque; one block gives np.mean and np.var bit
        for bit.
        """
        n, total, m2 = parts[0]
        for nb, tb, m2b in parts[1:]:
            delta = tb / nb - total / n
            m2 += m2b + delta * delta * (n * nb / (n + nb))
            n, total = n + nb, total + tb
        return cls(value=total / n, std_error=math.sqrt(m2 / n / n), n=n)

    @classmethod
    def frequency(cls, hits: int, n: int) -> Estimate:
        """The share hits/n of n trials, with its binomial standard error."""
        p = hits / n
        return cls(value=p, std_error=math.sqrt(p * (1 - p) / n), n=n)


@dataclass
class ExperimentReport:
    experiment: str
    config: dict = field(default_factory=dict)
    seed: int | None = None
    spec: dict | None = None
    x: int | None = None
    estimate: float | None = None
    std_error: float | None = None
    oracle_value: float | None = None
    guard_band: float | None = None
    exhaustive: bool | None = None
    extras: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    wall_time: float | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "seed": self.seed,
            "spec": self.spec,
            "x": self.x,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "oracle_value": self.oracle_value,
            "guard_band": self.guard_band,
            "exhaustive": self.exhaustive,
            "extras": self.extras,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=_coerce)

    def csv_row(self) -> dict:
        row = {
            "experiment": self.experiment,
            "seed": self.seed,
            "spec": json.dumps(self.spec, sort_keys=True) if self.spec else "",
            "x": self.x,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "oracle_value": self.oracle_value,
            "guard_band": self.guard_band,
            "exhaustive": self.exhaustive,
        }
        for key, val in sorted(self.extras.items()):
            row[key] = _coerce_csv(val)
        return row

    def human_table(self) -> str:
        rows = [
            ("experiment", self.experiment),
            ("spec", json.dumps(self.spec) if self.spec else "-"),
            ("x", self.x),
            ("seed", self.seed),
            ("estimate", self.estimate),
            ("std_error", self.std_error),
            ("oracle", self.oracle_value),
            ("guard_band", self.guard_band),
            ("exhaustive", self.exhaustive),
        ]
        rows += sorted(self.extras.items())
        if self.warnings:
            rows.append(("warnings", "; ".join(self.warnings)))
        width = max(len(str(k)) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows if v is not None]
        return "\n".join(lines)


def _coerce(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _coerce_csv(val):
    if isinstance(val, (dict, list)):
        return json.dumps(val, sort_keys=True, default=_coerce)
    return val


def write_csv(reports, path) -> None:
    """One CSV row per report; the column set is the union across reports."""
    rows = [r.csv_row() for r in reports]
    fields = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
