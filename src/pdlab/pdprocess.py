"""The Poisson-Dirichlet reference process (theta = 1).

Stick breaking: with U_1, U_2, ... iid uniform on (0, 1), the sticks are
G_1 = 1 - U_1, G_2 = U_1 (1 - U_2), G_3 = U_1 U_2 (1 - U_3), ...; sorting
them in nonincreasing order gives L_1 >= L_2 >= ...  Sampling truncates
once the unassigned residual product falls below a threshold; the sorted
prefix above the residual is exact.

Randomness is counter based (Philox) and keyed per fixed-size sample
block, so estimates are bit-identical for a given seed regardless of the
number of worker threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from pdlab.boxes import BoxFunction, tuple_sum_per_item
from pdlab.errors import ValidationError
from pdlab.report import Estimate

BLOCK = 1 << 15  # samples per RNG block; fixed, never tied to thread count
DEFAULT_TRUNCATION = 1e-12


@dataclass(frozen=True)
class PDSample:
    """Entries descending; entries + tail_mass telescope to exactly 1."""

    entries: tuple[float, ...]
    tail_mass: float


def sticks_from_uniforms(us):
    """Unsorted sticks G_j from explicit uniforms; exact for exact inputs.

    Works with any numeric type (fractions included): returns
    (sticks, residual) with sum(sticks) + residual == 1 by telescoping.
    """
    sticks = []
    residual = 1
    for u in us:
        sticks.append(residual * (1 - u))
        residual = residual * u
    return sticks, residual


def sample_pd(rng, truncation: float = DEFAULT_TRUNCATION) -> PDSample:
    """One PD sample; sticks are generated until the residual drops below
    the truncation threshold, then sorted descending."""
    if not 0 < truncation <= 1e-6:
        raise ValidationError(f"truncation must be in (0, 1e-6], got {truncation}")
    entries = []
    residual = 1.0
    while residual >= truncation:
        u = rng.uniform()
        entries.append(residual * (1.0 - u))
        residual *= u
    entries.sort(reverse=True)
    return PDSample(entries=tuple(entries), tail_mass=residual)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + block))


def _entries_above(rng, n: int, floor: float):
    """All stick entries >= floor for n samples, as a ragged (idx, value) pair.

    Entries below the floor cannot matter to the caller, and once the
    residual is below the floor no further stick can reach it.
    """
    idx = np.arange(n, dtype=np.int64)
    residual = np.ones(n, dtype=np.float64)
    out_i, out_v = [], []
    while idx.size:
        u = rng.uniform(size=idx.size)
        g = residual * (1.0 - u)
        keep = g >= floor
        if keep.any():
            out_i.append(idx[keep])
            out_v.append(g[keep])
        residual = residual * u
        alive = residual >= floor
        idx, residual = idx[alive], residual[alive]
    if out_i:
        return np.concatenate(out_i), np.concatenate(out_v)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


def _topk_block(rng, n: int, k: int, truncation: float):
    """Exact top-k entries for n samples (rows flagged if exactness at the
    truncation threshold could not be certified)."""
    idx = np.arange(n, dtype=np.int64)
    residual = np.ones(n, dtype=np.float64)
    top = np.zeros((n, k), dtype=np.float64)
    uncertified = 0
    while idx.size:
        u = rng.uniform(size=idx.size)
        g = residual * (1.0 - u)
        merged = np.concatenate([top[idx], g[:, None]], axis=1)
        merged.sort(axis=1)
        top[idx] = merged[:, :0:-1][:, :k] if k > 1 else merged[:, -1:]
        residual = residual * u
        # top-k is final once the residual cannot beat the k-th entry
        done = residual <= top[idx, k - 1]
        hard_stop = residual < truncation
        uncertified += int(np.count_nonzero(hard_stop & ~done))
        alive = ~(done | hard_stop)
        idx, residual = idx[alive], residual[alive]
    return top, uncertified


def _combine_blocks(n_samples: int, threads: int, work):
    """Run ``work(block_index, block_size)`` over fixed blocks, reducing in
    block order so results do not depend on the thread count."""
    blocks = [(i, min(BLOCK, n_samples - i * BLOCK)) for i in range((n_samples + BLOCK - 1) // BLOCK)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: work(*b), blocks))
    else:
        results = [work(*b) for b in blocks]
    return results


def _mean_mc(per_sample, n_samples: int, seed: int, threads: int) -> Estimate:
    """Mean and standard error of a per-sample statistic over the RNG blocks.

    ``per_sample(rng, size)`` returns the statistic of each of a block's
    samples; the sums are reduced in block order, so the estimate does not
    depend on the thread count.
    """

    def work(block, size):
        per = per_sample(_block_rng(seed, block), size)
        return per.sum(), np.square(per).sum(), size

    parts = _combine_blocks(n_samples, threads, work)
    s = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    mean = s / n
    var = max(s2 / n - mean * mean, 0.0)
    return Estimate(value=mean, std_error=math.sqrt(var / n), n=n)


def corr_mc(
    eta: BoxFunction, n_samples: int, seed: int, threads: int = 1
) -> Estimate:
    """Monte Carlo k-point correlation of the PD process against eta.

    Mean over samples of the distinct-index tuple sum; each sample
    contributes at most k! * C(floor(1/alpha), k) terms because entries
    below eta's support bound alpha cannot appear.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    alpha = eta.alpha
    if alpha <= 0:
        raise ValidationError("eta must have support bounded away from 0")

    def per_sample(rng, size):
        idx, vals = _entries_above(rng, size, alpha)
        return tuple_sum_per_item(idx, vals, size, eta)

    return _mean_mc(per_sample, n_samples, seed, threads)


def mean_l1_mc(n_samples: int, seed: int, threads: int = 1) -> Estimate:
    """Monte Carlo mean of the leading entry L_1 (the Golomb-Dickman constant)."""

    def per_sample(rng, size):
        return _topk_block(rng, size, 1, DEFAULT_TRUNCATION)[0][:, 0]

    return _mean_mc(per_sample, n_samples, seed, threads)


def joint_cdf_mc(
    c,
    n_samples: int,
    seed: int,
    threads: int = 1,
    truncation: float = DEFAULT_TRUNCATION,
    method: str = "topk",
) -> Estimate:
    """Estimate P(L_1 <= c_1, ..., L_k <= c_k) by Monte Carlo.

    method "topk" ranks the leading entries directly; method "counting"
    uses the equivalent event {#(entries > c_j) < j for all j} on the
    unsorted sticks, an independent code path used for cross-checks.
    """
    c = [float(v) for v in c]
    if not c or any(not 0 < v <= 1 for v in c):
        raise ValidationError("thresholds must be a nonempty vector in (0, 1]")
    if method not in ("topk", "counting"):
        raise ValidationError(f"unknown joint_cdf_mc method {method!r}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    k = len(c)

    def work_topk(block, size):
        rng = _block_rng(seed, block)
        top, _ = _topk_block(rng, size, k, truncation)
        hit = np.all(top <= np.asarray(c)[None, :], axis=1)
        return int(np.count_nonzero(hit)), size

    def work_counting(block, size):
        rng = _block_rng(seed, block)
        idx, vals = _entries_above(rng, size, truncation)
        ok = np.ones(size, dtype=bool)
        for j, cj in enumerate(c, start=1):
            above = np.bincount(idx[vals > cj], minlength=size)
            ok &= above < j
        return int(np.count_nonzero(ok)), size

    work = work_topk if method == "topk" else work_counting
    parts = _combine_blocks(n_samples, threads, work)
    hits = sum(p[0] for p in parts)
    n = sum(p[1] for p in parts)
    p_hat = hits / n
    return Estimate(
        value=p_hat, std_error=math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n), n=n
    )


def mass_identity_max_deviation(n_samples: int, seed: int, truncation: float = DEFAULT_TRUNCATION, threads: int = 1) -> float:
    """max over samples of |sum(entries) + tail_mass - 1| (telescoping check)."""

    def work(block, size):
        rng = _block_rng(seed, block)
        idx = np.arange(size, dtype=np.int64)
        residual = np.ones(size, dtype=np.float64)
        total = np.zeros(size, dtype=np.float64)
        tail = np.zeros(size, dtype=np.float64)
        while idx.size:
            u = rng.uniform(size=idx.size)
            total[idx] += residual * (1.0 - u)
            residual = residual * u
            done = residual < truncation
            tail[idx[done]] = residual[done]
            idx, residual = idx[~done], residual[~done]
        return float(np.max(np.abs(total + tail - 1.0))), size

    parts = _combine_blocks(n_samples, 1 if threads < 1 else threads, work)
    return max(p[0] for p in parts)
