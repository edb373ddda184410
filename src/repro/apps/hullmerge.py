"""Merging 3-d convex hulls and full 3-d hull construction
(paper Theorems 8.3 and 8.4).

``merge_hulls`` combines two hulls by (1) discarding each side's vertices
that lie inside the other hull — the exact inclusion filter, which on the
mesh is a batch of point queries — and (2) running the hull
construction (:func:`repro.geometry.hull3d.convex_hull_3d`) on the
survivors.  ``convex_hull_divide_conquer`` builds a full hull by
splitting on x and merging recursively, the shape of the paper's
Theorem 8.4 reduction to merging (the footnoted direct approaches
[LPJC90, HI90] notwithstanding, the multisearch paper's route to the 3-d
hull is precisely merge-based).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hull3d import Hull3D, convex_hull_3d
from repro.mesh.trace import traced

__all__ = ["merge_hulls", "convex_hull_divide_conquer"]


def merge_hulls(h1: Hull3D, h2: Hull3D) -> Hull3D:
    """Hull of the union of two hulls' vertex sets.

    Returns a hull over the concatenated point array (h1's points first),
    so face indices refer to that combined array.

    Traced phases (host spans): ``hullmerge:merge`` wrapping
    ``hullmerge:filter`` (mutual inclusion filter) and ``hullmerge:hull``
    (hull construction over the survivors).
    """
    with traced(None, "hullmerge:merge"):
        with traced(None, "hullmerge:filter"):
            p1 = h1.points[h1.vertices]
            p2 = h2.points[h2.vertices]
            keep1 = ~h2.contains(p1)
            keep2 = ~h1.contains(p2)
            # keep at least a simplex worth of points from the union
            pts = np.concatenate([p1[keep1], p2[keep2]])
            if pts.shape[0] < 4:
                pts = np.concatenate([p1, p2])
        with traced(None, "hullmerge:hull"):
            return convex_hull_3d(pts)


def convex_hull_divide_conquer(points: np.ndarray, leaf_size: int = 32) -> Hull3D:
    """3-d convex hull by divide-and-conquer merging (Theorem 8.4 shape).

    Splits on the x-median; leaves call :func:`convex_hull_3d` directly;
    internal nodes merge with :func:`merge_hulls`.  The returned hull's
    ``points`` array is a subset of the input (hull candidates only), so
    use geometric assertions (volume, containment) rather than index
    equality when comparing to other constructions.

    Each internal node is traced as a host span ``hullmerge:divide``
    (nested per recursion level, with ``hullmerge:merge`` children).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] <= max(leaf_size, 4):
        return convex_hull_3d(points)
    with traced(None, "hullmerge:divide"):
        order = np.argsort(points[:, 0], kind="stable")
        half = points.shape[0] // 2
        left = convex_hull_divide_conquer(points[order[:half]], leaf_size)
        right = convex_hull_divide_conquer(points[order[half:]], leaf_size)
        return merge_hulls(left, right)
