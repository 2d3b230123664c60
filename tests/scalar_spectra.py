"""The scalar reference for the bulk spectrum folds: ``scalar.spectrum``
applied value by value, with no peel or block and no pdlab code."""

from __future__ import annotations

import math

import numpy as np

import scalar
from oracles import PrimeCounts

# the bulk folds and the scalar path take logs through numpy and math
# respectively, which may differ in the last bit
TOL = 1e-12


def scalar_spectra(values) -> np.ndarray:
    """Each value's spectrum entries, descending, one row per value,
    padded with -inf."""
    pc = PrimeCounts(math.isqrt(int(np.max(values, initial=1))) + 1)
    rows = [scalar.spectrum(int(u), pc) for u in values]
    out = np.full((len(rows), max(map(len, rows), default=0)), -np.inf)
    for i, entries in enumerate(rows):
        out[i, : len(entries)] = entries
    return out


def assert_fold_matches(ref, top, entry_idx, entry_val, k: int, floor: float | None):
    """A fold's top (k columns) and entries >= floor are the scalar
    spectra ref, as scalar_spectra gives them."""
    n = ref.shape[0]
    assert top.shape == (n, k)
    lead = np.zeros((n, k))
    width = min(k, ref.shape[1])
    lead[:, :width] = np.maximum(ref[:, :width], 0.0)
    assert np.array_equal(top == 0, lead == 0)
    assert np.allclose(top, lead, rtol=0, atol=TOL)
    if floor is None:
        assert entry_idx.size == 0
        return
    order = np.lexsort((-entry_val, entry_idx))
    idx, val = entry_idx[order], entry_val[order]
    rank = np.arange(idx.size) - np.searchsorted(idx, idx)
    got = np.bincount(idx, minlength=n)
    # an entry on the floor itself (u = p**m with 1/m = floor) may fall on
    # either side of it in the last bit
    assert (np.count_nonzero(ref >= floor + TOL, axis=1) <= got).all()
    assert (got <= np.count_nonzero(ref >= floor - TOL, axis=1)).all()
    assert np.allclose(val, ref[idx, rank], rtol=0, atol=TOL)
