"""Span tracing of pdlab's layers, installed from outside the package.

A traced pass wraps the public functions named in SPANS where their
callers look them up (module globals, class attributes, or names imported
into another module), records one span per call in memory, and folds the
spans into per-layer metrics when the pass ends:

* ``<span>.self_s``: summed span durations minus the part of each span
  covered by its child spans;
* ``<span>.calls``: number of calls;
* named counts taken from the arguments or result of each call.

A memory pass wraps only the spans with a ``peak_mb`` count and runs them
under tracemalloc, whose per-allocation cost would distort the self times
of a timing pass; a timing pass never starts tracemalloc.

Calls made on worker threads of ``pdprocess``'s thread pool take the span
open on the main thread (the caller blocked in the pool) as their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc

MIB = float(1 << 20)


def _arg(name):
    return lambda a, r: a[name]


# span name -> (lookup sites as (module, attribute path), {count: fn(args, result)})
# "peak_mb" is the tracemalloc peak above the level at entry, not a function.
SPANS = {
    "sequences.members": ([("sequences", "members")], {"items": lambda a, r: len(r)}),
    "factor.smallest_factor_sieve": (
        [("factor", "smallest_factor_sieve")],
        # computed, not measured: the int64 spf array over [0, limit]
        {"bytes_computed": lambda a, r: 8 * (a["limit"] + 1)},
    ),
    "factor.bulk_spectra": (
        [("factor", "bulk_spectra")],
        {"entries": lambda a, r: len(r[0]), "peak_mb": None},
    ),
    "factor.bulk_spectra_trial": ([("factor", "bulk_spectra_trial")], {"entries": lambda a, r: len(r[0])}),
    "factor.build_prime_table": ([("factor", "build_prime_table")], {}),
    "arith.partial_sums_gh": ([("arith", "partial_sums_gh")], {}),
    "arith.roots_mod": ([("arith", "roots_mod")], {}),
    "arith.poly_root_count": ([("arith", "poly_root_count")], {}),
    "stats.build_sample_set": (
        [("stats", "build_sample_set")],
        {"peak_mb": None, "distinct_per_call": lambda a, r: repr((a["spec"], a["x"]))},
    ),
    "stats.tail_frequency": ([("stats", "tail_frequency")], {}),
    "stats.empirical_joint_cdf": ([("stats", "empirical_joint_cdf")], {}),
    "stats.empirical_corr": ([("stats", "empirical_corr")], {}),
    "stats.repeated_factor_frequency": ([("stats", "repeated_factor_frequency")], {}),
    "stats.sieve_survivor_experiment": ([("stats", "sieve_survivor_experiment")], {}),
    "stats.lod_error_sum": ([("stats", "lod_error_sum")], {}),
    "stats.ks_distance": ([("stats", "ks_distance")], {}),
    "dickman.RhoTable.rho_vec": ([("dickman", "RhoTable.rho_vec")], {}),
    "dickman.RhoTable.__init__": ([("dickman", "RhoTable.__init__")], {}),
    # imported by name into stats and pdprocess, so wrapped there too
    "boxes.tuple_sum_per_item": (
        [("boxes", "tuple_sum_per_item"), ("stats", "tuple_sum_per_item"),
         ("pdprocess", "tuple_sum_per_item")],
        {},
    ),
    "boxes.box_correlation_quadrature": (
        [("boxes", "box_correlation_quadrature"), ("cli", "box_correlation_quadrature")],
        {},
    ),
    "pdprocess.corr_mc": ([("pdprocess", "corr_mc")], {"samples": _arg("n_samples")}),
    "pdprocess.joint_cdf_mc": ([("pdprocess", "joint_cdf_mc")], {"samples": _arg("n_samples")}),
    "pdprocess.mass_identity_max_deviation": (
        [("pdprocess", "mass_identity_max_deviation")],
        {"samples": _arg("n_samples")},
    ),
    "report.ExperimentReport.to_json": (
        [("report", "ExperimentReport.to_json")],
        {"bytes": lambda a, r: len(r.encode())},
    ),
    "cli.run": ([("cli", "run")], {}),
}

COUNT_UNITS = {
    "items": "count",
    "entries": "count",
    "samples": "count",
    "bytes": "bytes",
    "bytes_computed": "bytes",
    "peak_mb": "MiB",
    "distinct_per_call": "ratio",
}

# metrics of the traced run as a whole, computed by the benchmark runner
RUN_METRICS = {
    "pdprocess.scaling_eff": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better), in a fixed order."""
    out = {}
    for name, (_, counts) in SPANS.items():
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
        for count in counts:
            better = "higher" if count == "distinct_per_call" else "lower"
            out[f"{name}.{count}"] = (COUNT_UNITS[count], better)
    out.update(RUN_METRICS)
    return out


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._mem: list[list[int]] = []  # [bytes at entry, highest peak seen]

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self) -> float:
        base, seen = self._mem.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - base) / MIB

    def wrap(self, name: str, fn, counts: dict):
        if self.memory:
            counts = {"peak_mb": None}
        else:
            counts = {k: f for k, f in counts.items() if k != "peak_mb"}
        sig = inspect.signature(fn) if any(counts.values()) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            span = [name, 0.0, 0.0, parent, None]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(sid)
            if tracer.memory:
                tracer._mem_enter()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                peak = tracer._mem_exit() if tracer.memory else None
            if counts:
                bound = sig.bind(*args, **kwargs).arguments if sig else None
                span[4] = {
                    k: (peak if k == "peak_mb" else f(bound, result)) for k, f in counts.items()
                }
            return result

        return traced

    def install(self) -> None:
        """Wrap the pass's SPANS entries at each of their lookup sites."""
        for name, (sites, counts) in SPANS.items():
            if self.memory and "peak_mb" not in counts:
                continue
            owner, attr = _resolve(*sites[0])
            traced = self.wrap(name, getattr(owner, attr), counts)
            for site in sites:
                owner, attr = _resolve(*site)
                setattr(owner, attr, traced)

    def metrics(self) -> dict:
        """Fold the spans into the per-span metrics of metric_units()."""
        covered = [[] for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent].append((start, end))
        out = {}
        keys: dict[str, set] = {}
        for sid, (name, start, end, _, counts) in enumerate(self.spans):
            self_s = max(end - start - _union(covered[sid]), 0.0)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            for k, v in (counts or {}).items():
                key = f"{name}.{k}"
                if k == "peak_mb":
                    out[key] = max(out.get(key, 0.0), v)
                elif k == "distinct_per_call":
                    keys.setdefault(name, set()).add(v)
                else:
                    out[key] = out.get(key, 0) + v
        for name, distinct in keys.items():
            out[f"{name}.distinct_per_call"] = len(distinct) / out[f"{name}.calls"]
        return {m: out.get(m, 0) for m in metric_units() if m not in RUN_METRICS}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"pdlab.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
