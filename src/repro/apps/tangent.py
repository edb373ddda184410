"""Multiple tangent plane determination (paper abstract / Theorem 8.1).

For each query point ``q`` outside a convex polyhedron ``P``, produce the
*tangent cone*: the planes through ``q`` that support ``P``, touching it
along the horizon of ``q``.  These are exactly the faces of
``conv(P U {q})`` incident to ``q`` — each such face's plane contains
``q``, contains a hull edge of ``P`` (the contact), and has all of ``P``
on its inner side.

The per-query work is one beneath-beyond step (vectorized visible-face
scan + horizon extraction) against the fixed hull; a batch of m queries
is m independent such steps, which is the data-parallel shape
multisearch exploits on the mesh.  Points inside ``P`` (exact test)
have an empty cone.  Tolerances are relative to the hull's coordinate
scale (:attr:`Hull3D.scale`), so the answers do not depend on units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.hull3d import Hull3D
from repro.mesh.trace import traced

__all__ = ["TangentCone", "tangent_cones"]

#: visibility tolerance, relative to the hull's coordinate scale
_EPS = 1e-9


@dataclass
class TangentCone:
    """The tangent cone of one query point."""

    inside: bool
    #: (K, 4) plane rows [normal, offset], outward (query side >= P side)
    planes: np.ndarray
    #: (K, 2) hull-vertex index pairs: the contact (horizon) edges
    contacts: np.ndarray


def tangent_cones(hull: Hull3D, queries: np.ndarray) -> list[TangentCone]:
    """Tangent cones of a batch of query points against ``hull``.

    Traced as one host span ``tangent:cones`` per batch.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    with traced(None, "tangent:cones"):
        return _tangent_cones(hull, queries)


def _tangent_cones(hull: Hull3D, queries: np.ndarray) -> list[TangentCone]:
    pts = hull.points
    scale = hull.scale
    out: list[TangentCone] = []

    # face adjacency over edges, once
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fid, (a, b, c) in enumerate(hull.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(fid)

    for q in queries:
        dists = hull.normals @ q - hull.offsets
        visible = dists > _EPS * scale
        if not visible.any():
            out.append(
                TangentCone(
                    inside=True,
                    planes=np.empty((0, 4)),
                    contacts=np.empty((0, 2), dtype=np.int64),
                )
            )
            continue
        horizon: list[tuple[int, int]] = []
        vis_ids = set(np.flatnonzero(visible).tolist())
        for f in vis_ids:
            a, b, c = hull.faces[f]
            for u, v in ((a, b), (b, c), (c, a)):
                adj = edge_faces[(min(u, v), max(u, v))]
                if any(g not in vis_ids for g in adj):
                    horizon.append((int(u), int(v)))
        planes = np.empty((len(horizon), 4))
        contacts = np.empty((len(horizon), 2), dtype=np.int64)
        interior = pts[hull.faces[:, 0]].mean(axis=0)
        for j, (u, v) in enumerate(horizon):
            nrm = np.cross(pts[u] - q, pts[v] - q)
            norm = np.linalg.norm(nrm)
            if norm < 1e-30 * scale * scale:
                nrm = hull.normals[next(iter(vis_ids))]
            else:
                nrm = nrm / norm
            off = float(nrm @ q)
            if nrm @ interior > off:  # orient with P on the <= side
                nrm, off = -nrm, -off
            planes[j] = np.concatenate([nrm, [off]])
            contacts[j] = (u, v)
        out.append(TangentCone(inside=False, planes=planes, contacts=contacts))
    return out
