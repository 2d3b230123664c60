"""The Poisson-Dirichlet reference process (theta = 1).

Stick breaking: with U_1, U_2, ... iid uniform on (0, 1), the sticks are
G_1 = 1 - U_1, G_2 = U_1 (1 - U_2), G_3 = U_1 U_2 (1 - U_3), ...; sorting
them in nonincreasing order gives L_1 >= L_2 >= ...

One round generator, ``_stick_rounds``, draws the sticks of a block of
samples.  It holds the block's rows still in play with each fold's
per-row state arrays (running maximum, running sum, top-k columns);
every round draws one uniform per row, in ascending row order, and
yields the rows, sticks and state for the fold to update in place.  A
row leaves once its residual is below the fold's floor, since no later
stick can reach the floor, or once the fold's ``done`` test marks it;
the generator hands leaving rows to the fold's
``retire(idx, residual, state)`` callback, which writes the row's
outputs once, and drops them from every array in the same round.  Every
estimator is a fold with its own stopping rule:

* ``_topk_block`` keeps k columns c_0 >= .. >= c_{k-1} and inserts each
  stick by compare-exchange, c_j = max(c_j, min(c_{j-1}, stick)) from
  j = k-1 down, then c_0 = max(c_0, stick); a row is certified and
  retires once its residual cannot beat c_{k-1} (``joint_cdf_mc``);
* ``_entries_above`` keeps every entry above a floor (``corr_mc``);
* ``_l1_and_deviation`` folds the leading entry and the telescoping sum.
  ``l1_mass_mc`` (the ``pd`` subcommand) runs it with the rule
  ``_lead_certified``: a row retires once its residual is at most its
  running maximum, since no later stick can exceed the residual; that
  takes 1.83 rounds per sample on average (measured).
  ``mass_identity_max_deviation`` runs it with no rule, to ``TRUNCATION``
  (about 29 rounds per sample).

A fold's stopping rule decides which rows draw in each round, and so
which uniforms every later row of the block gets: two folds over the
same generator agree on the rows' sticks only while they retire the same
rows.  An estimate's bits therefore depend on its fold's stopping rule;
its law does not.

``_combine_blocks`` runs a fold on each block of ``BLOCK`` samples with
the block's own SFC64 generator, seeded by the SeedSequence of the seed
with the block index as its spawn key, and returns the results in block
order; each worker reduces its block to ``moments`` or a hit count, and
the blocks are combined in that order, so estimates are bit-identical
for a given seed regardless of the number of worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pdlab.boxes import BoxFunction, check_tuple_budget, tuple_sum_per_item
from pdlab.errors import ValidationError
from pdlab.report import Estimate, joint_cdf_hits, joint_cdf_thresholds, moments

# samples per RNG block, fixed and never tied to the thread count; as large
# as factor.MEMBER_BLOCK, so each round's numpy calls do more work per hand-over
# of the GIL between workers (2**17 was no faster and raised a pass's peak)
BLOCK = 1 << 16
# residual below which a sample's stick loop stops: no later stick is above it
TRUNCATION = 1e-12


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Block ``block``'s generator: SFC64 from the seed's SeedSequence with
    spawn key (block,), the stream ``SeedSequence(seed).spawn`` gives it."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(int(seed), spawn_key=(block,)))
    )


def _stick_rounds(rng, n: int, floor: float, state, retire=None, done=None):
    """Stick rounds for n samples.

    Each round yields (rows, stick, state): ``rows`` are the indices of
    the samples still in play, ascending, ``stick`` each row's new stick
    and ``state`` the caller's per-row arrays, which the fold updates in
    place.  Every row draws one uniform, in ascending order.  After the
    fold a row leaves if its residual is below ``floor`` (no later stick
    can reach it) or if ``done(residual, state)`` marks it;
    ``retire(idx, residual, state)`` then gets the leaving rows' indices,
    residuals and state, and one take per array drops them before the
    next round.
    """
    rows = np.arange(n, dtype=np.int64)
    residual = np.ones(n, dtype=np.float64)
    state = list(state)
    u = np.empty(n, dtype=np.float64)
    stick = np.empty(n, dtype=np.float64)
    while rows.size:
        rng.random(out=u)
        np.subtract(1.0, u, out=stick)
        stick *= residual
        residual *= u
        yield rows, stick, state
        leave = residual < floor
        if done is not None:
            leave |= done(residual, state)
        out = np.flatnonzero(leave)
        if not out.size:
            continue
        if retire is not None:
            retire(rows.take(out), residual.take(out), [a.take(out) for a in state])
        keep = np.flatnonzero(~leave)
        rows, residual = rows.take(keep), residual.take(keep)
        state = [a.take(keep) for a in state]
        u, stick = u[: keep.size], stick[: keep.size]


def _entries_above(rng, n: int, floor: float):
    """All stick entries >= floor for n >= 1 samples, as a ragged (idx, value) pair."""
    out_i, out_v = [], []
    for rows, stick, _ in _stick_rounds(rng, n, floor, ()):
        keep = np.flatnonzero(stick >= floor)
        out_i.append(rows.take(keep))
        out_v.append(stick.take(keep))
    return np.concatenate(out_i), np.concatenate(out_v)


def _topk_block(rng, n: int, k: int, truncation: float):
    """Exact top-k entries for n samples, and the number of rows whose
    top-k the truncation threshold cut off before it was certified.

    The fold keeps k columns c_0 >= .. >= c_{k-1} and inserts each stick
    by compare-exchange; a row's top-k is final (certified) once its
    residual cannot beat c_{k-1}.
    """
    top = np.empty((n, k), dtype=np.float64)
    uncertified = 0

    def retire(idx, residual, c):
        nonlocal uncertified
        for j in range(k):
            top[idx, j] = c[j]
        uncertified += int(np.count_nonzero(residual > c[-1]))

    zeros = [np.zeros(n) for _ in range(k)]
    for _, stick, c in _stick_rounds(rng, n, truncation, zeros, retire, lambda r, c: r <= c[-1]):
        for j in range(k - 1, 0, -1):
            np.maximum(c[j], np.minimum(c[j - 1], stick), out=c[j])
        np.maximum(c[0], stick, out=c[0])
    return top, uncertified


def _lead_certified(residual, state):
    """A row's L_1 is final once its residual is at most its running maximum."""
    return residual <= state[0]


def _l1_and_deviation(rng, n: int, truncation: float, done=None):
    """Per sample the leading entry L_1, and the block's largest
    |sum(sticks) + residual - 1| over the sticks drawn, from one fold.

    ``done(residual, (lead, total))`` retires a row early (see
    ``_stick_rounds``); with no rule every row runs to ``truncation``.
    """
    l1 = np.empty(n, dtype=np.float64)
    deviation = 0.0

    def retire(idx, residual, state):
        nonlocal deviation
        lead, total = state
        l1[idx] = lead
        deviation = max(deviation, float(np.max(np.abs(total + residual - 1.0))))

    zeros = [np.zeros(n), np.zeros(n)]
    for _, stick, (lead, total) in _stick_rounds(rng, n, truncation, zeros, retire, done):
        np.maximum(lead, stick, out=lead)
        total += stick
    return l1, deviation


def _combine_blocks(n_samples: int, seed: int, threads: int, fold) -> list:
    """``fold(rng, size)`` on each fixed block of n_samples, with the
    block's own generator keyed by (seed, block index); the results come
    in block order, so they do not depend on the thread count."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")

    def work(block):
        return fold(_block_rng(seed, block), min(BLOCK, n_samples - block * BLOCK))

    blocks = range((n_samples + BLOCK - 1) // BLOCK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, blocks))
    return [work(b) for b in blocks]


def corr_mc(
    eta: BoxFunction, n_samples: int, seed: int, threads: int = 1
) -> Estimate:
    """Monte Carlo k-point correlation of the PD process against eta.

    Mean over samples of the distinct-index tuple sum; each sample
    contributes at most k! * C(floor(1/alpha), k) terms because entries
    below eta's support bound alpha cannot appear.  Raises
    ResourceBudgetError (``check_tuple_budget``) before any sample is drawn.
    """
    check_tuple_budget(eta)

    def fold(rng, size):
        idx, vals = _entries_above(rng, size, eta.alpha)
        return moments(tuple_sum_per_item(idx, vals, size, eta))

    return Estimate.mean(_combine_blocks(n_samples, seed, threads, fold))


def l1_mass_mc(n_samples: int, seed: int, threads: int = 1) -> tuple[Estimate, float]:
    """One Monte Carlo pass: the mean leading entry L_1 (the Golomb-Dickman
    constant) and the max over samples of |sum(sticks) + residual - 1|
    over the sticks the pass drew.

    Each sample stops at the first round whose residual is at most its
    running maximum (``_lead_certified``), where its L_1 is certified, so
    the deviation covers fewer sticks than ``mass_identity_max_deviation``,
    which runs every sample to ``TRUNCATION``.
    """

    def fold(rng, size):
        l1, deviation = _l1_and_deviation(rng, size, TRUNCATION, _lead_certified)
        return moments(l1), deviation

    parts = _combine_blocks(n_samples, seed, threads, fold)
    return Estimate.mean([m for m, _ in parts]), max(d for _, d in parts)


def joint_cdf_mc(c, n_samples: int, seed: int, threads: int = 1) -> Estimate:
    """Estimate P(L_1 <= c_1, ..., L_k <= c_k) by Monte Carlo, ranking
    each sample's k leading entries (``_topk_block``)."""
    c = joint_cdf_thresholds(c)

    def fold(rng, size):
        top, _ = _topk_block(rng, size, len(c), TRUNCATION)
        return joint_cdf_hits(top, c)

    return Estimate.frequency(sum(_combine_blocks(n_samples, seed, threads, fold)), n_samples)


def mass_identity_max_deviation(n_samples: int, seed: int, threads: int = 1) -> float:
    """max over samples of |sum(sticks) + residual - 1| (telescoping check),
    with every sample's sticks run until its residual is below
    ``TRUNCATION``: its own pass, not ``l1_mass_mc``'s certified one."""

    def fold(rng, size):
        return _l1_and_deviation(rng, size, TRUNCATION)[1]

    return max(_combine_blocks(n_samples, seed, threads, fold))
