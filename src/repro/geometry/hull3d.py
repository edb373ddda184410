"""3-d convex hull: Qhull on the host, a modelled charge on the mesh.

The host computes the hull with one ``scipy.spatial.ConvexHull`` call
(Qhull; Barber, Dobkin and Huhdanpaa, "The Quickhull Algorithm for
Convex Hulls", ACM TOMS 1996).  As with the other construction
stand-ins, the host algorithm is not what the mesh would run: an
attached :class:`repro.mesh.construct.Construction` is charged the
modelled mesh cost instead.

The result is a triangulated hull whose faces are wound to agree with
Qhull's outward facet normals.  Qhull's precision tests are relative to
the input's extent, so points on a flat face are not vertices and the
answer does not depend on the input's scale.  Inputs whose affine hull
is below 3-d are rejected by a (scale-free) rank test before Qhull sees
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Hull3D", "convex_hull_3d"]

#: affine rank of a degenerate input -> the error it raises
_DEGENERATE = {
    0: "all points coincide",
    1: "all points collinear",
    2: "all points coplanar",
}


@dataclass
class Hull3D:
    """A triangulated convex hull.

    ``faces`` index into the *original* point array; normals point
    outward; ``vertices`` are the sorted unique point indices on the hull.
    """

    points: np.ndarray  # (n, 3) the original input points
    faces: np.ndarray  # (F, 3) int64, outward-oriented
    normals: np.ndarray  # (F, 3) unit outward normals
    offsets: np.ndarray  # (F,) with face plane {x : n.x = d}

    @property
    def vertices(self) -> np.ndarray:
        return np.unique(self.faces)

    def volume(self) -> float:
        """Enclosed volume via the divergence theorem."""
        a = self.points[self.faces[:, 0]]
        b = self.points[self.faces[:, 1]]
        c = self.points[self.faces[:, 2]]
        return float(np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)).sum()) / 6.0)

    @property
    def scale(self) -> float:
        """Largest coordinate magnitude of the points (a hull vertex attains
        it): the unit of the hull's tolerances."""
        return float(np.abs(self.points).max())

    def contains(self, q: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        """True where query points lie inside (or on) the hull.

        Exact O(F) per point, vectorized; the substrate inclusion test.
        ``eps`` is relative to :attr:`scale`, so scaling hull and queries
        together does not change the answer.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        d = q @ self.normals.T - self.offsets[None, :]
        return (d <= eps * self.scale).all(axis=1)

    def support(self, direction: np.ndarray) -> int:
        """Index of the hull vertex extreme in ``direction`` (brute force)."""
        vs = self.vertices
        return int(vs[np.argmax(self.points[vs] @ np.asarray(direction, dtype=np.float64))])

    def edges(self) -> np.ndarray:
        """Unique undirected hull edges as an ``(E, 2)`` sorted-index array."""
        e = np.concatenate(
            [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
        )
        e.sort(axis=1)
        return np.unique(e, axis=0)


def convex_hull_3d(points: np.ndarray, construct=None) -> Hull3D:
    """Compute the convex hull of ``points`` ((n, 3), n >= 4).

    Raises ``ValueError`` when the points span less than three
    dimensions or Qhull rejects them.

    Traced phases: ``hull3d:build`` wrapping ``hull3d:simplex`` (the
    dimension check) and ``hull3d:insert`` (the Qhull call).  With a
    :class:`repro.mesh.construct.Construction` attached, the spans charge
    the modelled mesh cost of the divide-and-conquer hull on a submesh
    sized for ``n`` — four extreme-point reductions, one sort of the
    points, a scan, and a route of the final faces; the host-side Qhull
    call itself is the sequential stand-in and stays wall-time-only.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got {points.shape}")
    n = points.shape[0]
    if n < 4:
        raise ValueError(f"need >= 4 points, got {n}")
    if construct is None:
        from repro.mesh.construct import Construction

        construct = Construction(n)
    with construct.span("hull3d:build"):
        with construct.span("hull3d:simplex"):
            rank = int(np.linalg.matrix_rank(points - points[0]))
            if rank < 3:
                raise ValueError(_DEGENERATE[rank])
            # modelled: the four farthest-point selections are global reduces
            for _ in range(4):
                construct.reduce(points[:, 0], op="max", n=n)
        with construct.span("hull3d:insert"):
            # modelled: one sort of the points into mesh order, a scan to
            # rank them, and a route of the final face records
            construct.sort(points[:, 0], n=n)
            construct.scan(np.ones(n, dtype=np.int64), n=n)
            # lazy import, as in kirkpatrick: restores need no scipy
            from scipy.spatial import ConvexHull, QhullError

            try:
                qh = ConvexHull(points)
            except QhullError as exc:
                reason = str(exc).strip().splitlines()[0]
                raise ValueError(f"Qhull rejected the points: {reason}") from exc
            faces = qh.simplices.astype(np.int64)
            normals = qh.equations[:, :3]
            a, b, c = (points[faces[:, k]] for k in range(3))
            flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), normals) < 0
            faces[flip] = faces[flip][:, ::-1]
            construct.route(np.arange(faces.shape[0]), faces[:, 0], n=faces.shape[0])
    return Hull3D(points=points, faces=faces, normals=normals, offsets=-qh.equations[:, 3])
