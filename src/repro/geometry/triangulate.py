"""Ear-clipping triangulation of simple polygons.

Used by the Kirkpatrick hierarchy to retriangulate the star-shaped holes
left by removing an independent set of vertices.  The holes of one
removal round are disjoint, so :func:`ear_clip_many` clips all of them in
lockstep: the polygons are padded to one ``(H, K, 2)`` array, and on each
of the ``K - 3`` iterations every polygon that still has more than three
vertices clips its *first* valid ear in its current vertex order — the
classic sequential rule, with the same ``orient2d`` and strict-inside
arithmetic, run as a few numpy calls for all polygons at once.  So each
polygon's triangles, and their order, do not depend on the batch it was
clipped in.  :func:`ear_clip` is the one-polygon case.

O(k^2) work per polygon, which is O(1) amortized in the hierarchy
because removed vertices have degree at most a constant.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import orient2d
from repro.mesh.trace import traced

__all__ = ["ear_clip", "ear_clip_many", "signed_area2"]


def signed_area2(polygons: np.ndarray, sizes) -> np.ndarray:
    """Twice the signed (shoelace) area of each polygon; > 0 for CCW.

    ``polygons`` is ``(H, K, 2)``; polygon ``h`` is its first
    ``sizes[h]`` rows, the rest is padding and does not count.  Each
    polygon's terms are summed in vertex order (a running sum read at its
    last vertex), so its area does not depend on the padding width ``K``
    — a pairwise ``sum`` regroups the terms by ``K`` and can flip the sign
    of a zero-area polygon's rounding error.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    pos = np.arange(polygons.shape[1])
    nxt = (pos + 1) % sizes[:, None]
    x, y = polygons[..., 0], polygons[..., 1]
    terms = x * np.take_along_axis(y, nxt, axis=1) - np.take_along_axis(
        x, nxt, axis=1
    ) * y
    running = np.cumsum(terms, axis=1)
    return np.take_along_axis(running, sizes[:, None] - 1, axis=1)[:, 0]


def ear_clip(polygon: np.ndarray, eps: float = 1e-12, construct=None) -> np.ndarray:
    """Triangulate a simple polygon given in counter-clockwise order.

    Returns ``(k-2, 3)`` vertex-index triples into ``polygon``.  Raises
    ``ValueError`` if the polygon is not simple/CCW enough to clip or its
    area is not positive.  The one-polygon case of :func:`ear_clip_many`.
    """
    polygon = np.asarray(polygon, dtype=np.float64)
    return ear_clip_many(polygon[None], [polygon.shape[0]], eps, construct)


def ear_clip_many(
    polygons: np.ndarray, sizes, eps: float = 1e-12, construct=None
) -> np.ndarray:
    """Triangulate many simple CCW polygons in lockstep.

    ``polygons`` is ``(H, K, 2)``; polygon ``h`` is its first
    ``sizes[h]`` rows (the rest is padding).  Returns the
    ``(sum(sizes - 2), 3)`` vertex-index triples into each polygon's own
    rows, polygon after polygon, each polygon's triangles in the order
    :func:`ear_clip` gives them.  Raises ``ValueError`` if any polygon has
    fewer than three vertices, a signed area that is not positive, or is
    not simple enough to clip.

    With a :class:`repro.mesh.construct.Construction` attached, the
    batch is one ``triangulate:ear-clip`` span charging ``max(sizes)``
    modelled local steps: the polygons are clipped at once on disjoint
    submeshes, clipping a ``k``-gon is ``k`` local steps, so the batch
    pays for its largest polygon (an empty batch charges nothing).
    Standalone calls (``construct=None``) are one host-only ambient
    ``triangulate:ear-clip`` span.
    """
    polygons = np.asarray(polygons, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and sizes.min() < 3:
        raise ValueError(f"polygon needs >= 3 vertices, got {sizes.min()}")
    if construct is None:
        with traced(None, "triangulate:ear-clip"):
            return _ear_clip_many(polygons, sizes, eps)
    if sizes.size:
        with construct.span("triangulate:ear-clip"):
            construct.local(int(sizes.max()))
    return _ear_clip_many(polygons, sizes, eps)


def _ear_clip_many(polygons: np.ndarray, sizes: np.ndarray, eps: float) -> np.ndarray:
    if (signed_area2(polygons, sizes) <= 0).any():
        raise ValueError("polygon must be counter-clockwise with positive area")
    H, K = polygons.shape[:2]
    if H == 0:
        return np.zeros((0, 3), dtype=np.int64)
    # order[h, :m[h]] = polygon h's remaining vertices, in polygon order
    order = np.tile(np.arange(K), (H, 1))
    m = sizes.copy()
    out = np.empty((H, K - 2, 3), dtype=np.int64)
    for it in range(K - 3):
        width = K - it
        pos = np.arange(width)
        # the polygons with more than three vertices left clip one ear each
        h = np.flatnonzero(m > 3)[:, None]
        o, mh = order[h[:, 0], :width], m[h]
        prev_pos, next_pos = (pos - 1) % mh, (pos + 1) % mh
        ia = np.take_along_axis(o, prev_pos, axis=1)
        ic = np.take_along_axis(o, next_pos, axis=1)
        a, b, c = polygons[h, ia], polygons[h, o], polygons[h, ic]
        # ear (h, i) is blocked by a remaining vertex j other than its own
        # three that lies strictly inside it
        p = b[:, None]
        A, B, C = a[:, :, None], b[:, :, None], c[:, :, None]
        inside = (
            (orient2d(p, A, B) > eps)
            & (orient2d(p, B, C) > eps)
            & (orient2d(p, C, A) > eps)
        )
        j = pos[None, None, :]
        others = (
            (j < mh[:, :, None])
            & (j != pos[:, None])
            & (j != prev_pos[:, :, None])
            & (j != next_pos[:, :, None])
        )
        ear = (
            ~(orient2d(a, b, c) <= eps)
            & ~(inside & others).any(axis=2)
            & (pos < mh)
        )
        if not ear.any(axis=1).all():
            raise ValueError("ear clipping stuck: degenerate polygon")
        i = ear.argmax(axis=1)[:, None]
        out[h[:, 0], it] = np.concatenate(
            [np.take_along_axis(x, i, axis=1) for x in (ia, o, ic)], axis=1
        )
        order[h, pos[:-1]] = o[pos != i].reshape(-1, width - 1)
        m[h] -= 1
    out[np.arange(H), sizes - 3] = order[:, :3]
    return out[np.arange(K - 2) < (sizes - 2)[:, None]]
