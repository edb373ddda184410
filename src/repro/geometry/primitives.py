"""Geometric predicates (2-d and 3-d).

Plain float arithmetic with explicit epsilons: the workloads are random
point sets (joggled where needed), so robustness requirements are mild;
every consumer states which side of a tie it tolerates.

The 2-d predicates broadcast over leading axes, so a caller tests many
points or pairs in one call.  Triangle overlap is one batched
separating-axis test, :func:`triangles_overlap_matrix`, over every pair
of two triangle sets; :func:`triangles_overlap` is its single-pair case.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "orient2d",
    "point_in_triangle",
    "triangles_overlap",
    "triangles_overlap_matrix",
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


def triangles_overlap_matrix(
    a: np.ndarray, b: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Pairwise interior overlap of 2-d triangles (batched SAT test).

    ``a`` is ``(N, 3, 2)`` and ``b`` is ``(M, 3, 2)``; returns the
    ``(N, M)`` boolean matrix whose entry ``[i, j]`` is True iff the
    interiors of ``a[i]`` and ``b[j]`` intersect.  The separating axes are
    the six edge normals of the pair; a pair whose projections onto one
    of them overlap by at most ``eps`` is separated, so shared edges and
    vertices do not count as overlap, which is what the Kirkpatrick
    parent-linking needs (a new triangle is linked to the old triangles
    whose interiors it shares area with).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def separated(tri: np.ndarray, other: np.ndarray) -> np.ndarray:
        # (T, 3, 2) outward edge normals of each triangle in ``tri``
        edges = np.roll(tri, -1, axis=1) - tri
        axes = np.stack([edges[..., 1], -edges[..., 0]], axis=-1)[..., None]
        # project with matmul, one matrix-vector product per (triangle,
        # axis): at a shared edge the eps decision hangs on the last bit,
        # and the BLAS kernel may fuse the multiply-add, so an elementwise
        # x * ax + y * ay would round differently and link differently.
        # p1[t, k, v] puts vertex v of tri[t] on axis k of tri[t] and
        # p2[t, o, k, v] puts vertex v of other[o] on axis k of tri[t]
        p1 = np.matmul(tri[:, None], axes)[..., 0]
        p2 = np.matmul(other[None, :, None], axes[:, None])[..., 0]
        lo1, hi1 = p1.min(axis=-1)[:, None], p1.max(axis=-1)[:, None]
        lo2, hi2 = p2.min(axis=-1), p2.max(axis=-1)
        return ((hi1 <= lo2 + eps) | (hi2 <= lo1 + eps)).any(axis=-1)

    return ~(separated(a, b) | separated(b, a).T)


def triangles_overlap(t1: np.ndarray, t2: np.ndarray, eps: float = 1e-12) -> bool:
    """True iff the *interiors* of two 2-d triangles intersect.

    The single-pair case of :func:`triangles_overlap_matrix`.
    """
    return bool(
        triangles_overlap_matrix(
            np.asarray(t1)[None], np.asarray(t2)[None], eps
        )[0, 0]
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
