"""Host kernels under the engine's counted primitives that hold logic.

The step clock charges the paper's mesh costs; these functions only move
the arrays underneath.  The one-line kernels (stable argsort, gathers,
masked packs, reductions, ufunc accumulates, combining writes) are plain
numpy calls at their call sites in :mod:`repro.mesh.engine`.  What
remains here is the handful with a rule of their own: gathers and
scatters with a ``-1 -> fill`` convention, the min/max identities, and
the segmented scan.
"""

from __future__ import annotations

import numpy as np

__all__ = ["REDUCERS", "identity", "take", "scatter", "segmented_scan"]

#: combine name -> the ufunc every scan, reduce and combining write uses
REDUCERS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def identity(dtype: np.dtype, op: str):
    """The min/max identity used for exclusive scans and combining fills."""
    if dtype.kind == "f":
        return np.inf if op == "min" else -np.inf
    info = np.iinfo(dtype)
    return info.max if op == "min" else info.min


def take(table: np.ndarray, idx: np.ndarray, fill=0) -> np.ndarray:
    """Gather rows ``out[i] = table[idx[i]]``; ``idx[i] == -1`` yields ``fill``."""
    if not table.shape[0]:
        return np.full((idx.shape[0],) + table.shape[1:], fill, dtype=table.dtype)
    # negative ids clip to row 0 and are overwritten; ids past the end
    # are the caller's to reject
    out = table.take(idx, axis=0, mode="clip")
    out[idx < 0] = fill
    return out


def scatter(values: np.ndarray, dest: np.ndarray, size: int, fill=0) -> np.ndarray:
    """Route row *i* to ``dest[i]``; ``-1`` discards; holes get ``fill``."""
    live = dest >= 0
    out = np.full((size,) + values.shape[1:], fill, dtype=values.dtype)
    out[dest[live]] = values[live]
    return out


def segmented_scan(
    values: np.ndarray, segments: np.ndarray, op: str, inclusive: bool
) -> np.ndarray:
    """Prefix combine restarting wherever the segment id changes.

    Ids need not be sorted, only grouped.  The shapes below are
    load-bearing for bit-identity: ``add`` is a *global* cumsum minus the
    running total at the last boundary (NOT a per-segment restart — the
    float rounding differs), and ``min``/``max`` resolve ties through
    stable sort ranks, so among bit-distinct equal values (``-0.0`` vs
    ``0.0``) max picks the latest and min the earliest.  NaN values are
    not supported: the ranks order them arbitrarily.
    """
    n = values.shape[0]
    if n == 0:
        return values.copy()
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = segments[1:] != segments[:-1]
    seg_index = np.cumsum(boundary) - 1
    if op == "add":
        running = np.cumsum(values)
        offsets = np.concatenate([[0], running[:-1][boundary[1:]]])
        result = running - offsets[seg_index]
        if not inclusive:
            result = result - values
        return result
    # min/max via offset-adjusted rank accumulate: each segment's ranks
    # live in a disjoint integer band, so one global accumulate restarts
    # exactly at every boundary.
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    offset = seg_index * n
    if op == "max":
        run = np.maximum.accumulate(rank + offset) - offset
    else:
        run = np.minimum.accumulate(rank - offset) + offset
    inc = values[order[run]]
    if inclusive:
        return inc
    out = np.empty_like(values)
    out[1:] = inc[:-1]
    out[np.flatnonzero(boundary)] = identity(values.dtype, op)
    return out
