"""Geometric predicates (2-d and 3-d).

Plain float arithmetic with explicit epsilons: the workloads are random
point sets (joggled where needed), so robustness requirements are mild;
every consumer states which side of a tie it tolerates.

The 2-d predicates broadcast over leading axes, so a caller tests many
points or pairs in one call.  Triangle overlap is one batched
separating-axis test, :func:`triangles_overlap_pairs`, over a list of
index pairs into two triangle sets; :func:`triangles_overlap` is its
single-pair case.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orient2d",
    "point_in_triangle",
    "triangles_overlap",
    "triangles_overlap_pairs",
    "plane_from_points",
    "signed_volume",
]


def orient2d(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Twice the signed area of triangle abc; > 0 for counter-clockwise.

    Vectorized over leading axes: ``a``, ``b``, ``c`` are ``(..., 2)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])


def point_in_triangle(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """True where point ``p`` lies in (or on the boundary of) triangle abc.

    Works for either orientation of abc.  Vectorized over leading axes.
    """
    d1 = orient2d(p, a, b)
    d2 = orient2d(p, b, c)
    d3 = orient2d(p, c, a)
    has_neg = (d1 < -eps) | (d2 < -eps) | (d3 < -eps)
    has_pos = (d1 > eps) | (d2 > eps) | (d3 > eps)
    return ~(has_neg & has_pos)


def triangles_overlap_pairs(
    a: np.ndarray, b: np.ndarray, ia, ib, eps: float = 1e-12
) -> np.ndarray:
    """Interior overlap of chosen pairs of 2-d triangles (batched SAT test).

    ``a`` is ``(N, 3, 2)``, ``b`` is ``(M, 3, 2)``, and ``ia``, ``ib`` are
    index arrays of one length ``P``; returns the ``(P,)`` boolean array
    whose entry ``p`` is True iff the interiors of ``a[ia[p]]`` and
    ``b[ib[p]]`` intersect.  The separating axes are the six edge normals
    of the pair; a pair whose projections onto one of them overlap by at
    most ``eps`` is separated, so shared edges and vertices do not count
    as overlap, which is what the Kirkpatrick parent-linking needs (a new
    triangle is linked to the old triangles whose interiors it shares
    area with).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)

    def separated(tri, other, it, io):
        # (T, 3, 2, 1) outward edge normals of each triangle in ``tri``
        edges = tri[:, [1, 2, 0]] - tri
        axes = np.stack([edges[..., 1], -edges[..., 0]], axis=-1)[..., None]
        # project with matmul, one (3, 2) @ (2, 1) matrix-vector product
        # per (triangle, axis): at a shared edge the eps decision hangs on
        # the last bit, and the BLAS kernel may fuse the multiply-add, so
        # an elementwise x * ax + y * ay would round differently and link
        # differently.  p1[t, k, v] puts vertex v of tri[t] on axis k of
        # tri[t] (once per triangle) and p2[p, k, v] puts vertex v of
        # other[io[p]] on axis k of tri[it[p]]
        p1 = np.matmul(tri[:, None], axes)[..., 0]
        p2 = np.matmul(other[io][:, None], axes[it])[..., 0]
        # min / max / any over the last axis of length 3, unrolled (numpy's
        # reductions over a short trailing axis are slow)
        lo1, hi1 = _lo(p1)[it], _hi(p1)[it]
        gap = (hi1 <= _lo(p2) + eps) | (_hi(p2) <= lo1 + eps)
        return gap[:, 0] | gap[:, 1] | gap[:, 2]

    return ~(separated(a, b, ia, ib) | separated(b, a, ib, ia))


def _lo(p: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(p[..., 0], p[..., 1]), p[..., 2])


def _hi(p: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(p[..., 0], p[..., 1]), p[..., 2])


def triangles_overlap(t1: np.ndarray, t2: np.ndarray, eps: float = 1e-12) -> bool:
    """True iff the *interiors* of two 2-d triangles intersect.

    The single-pair case of :func:`triangles_overlap_pairs`.
    """
    return bool(
        triangles_overlap_pairs(
            np.asarray(t1)[None], np.asarray(t2)[None], [0], [0], eps
        )[0]
    )


def plane_from_points(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Plane through 3-d points a, b, c: returns (unit normal n, offset d)
    with the plane ``{x : n . x = d}``; normal by right-hand rule."""
    a = np.asarray(a, dtype=np.float64)
    n = np.cross(b - a, c - a)
    norm = np.linalg.norm(n)
    if norm < 1e-30:
        raise ValueError("degenerate plane (collinear points)")
    n = n / norm
    return n, float(n @ a)


def signed_volume(a, b, c, d) -> float:
    """6x the signed volume of tetrahedron abcd (> 0 if d on the positive
    side of plane abc by the right-hand rule)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.dot(np.cross(np.asarray(b) - a, np.asarray(c) - a), np.asarray(d) - a))
