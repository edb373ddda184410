"""Multiple line-polyhedron queries (paper Theorem 8.1).

Given a convex polyhedron ``P`` with n vertices and n query lines,
determine for each line whether it intersects ``P`` and, if not, the two
planes through the line tangent to ``P``.

Reduction: project ``P`` and the line ``l`` along ``l``'s direction onto
a perpendicular plane; ``l`` becomes a point ``q`` and ``P`` a convex
polygon (the projection of the hull).  ``l`` misses ``P`` iff ``q`` is
outside the polygon, in which case the two tangent lines from ``q`` lift
to the two tangent planes through ``l``.  Both tangent searches are
angular-extreme descents on the Dobkin-Kirkpatrick hierarchy — a
hierarchical-DAG multisearch (two queries per line), Theorem 2.

The tangency of each returned vertex is verified locally against its full
hull neighbourhood (polygon neighbours of a projected hull vertex are
projections of 3-d silhouette edges, hence 3-d hull neighbours, so the
local test is sound *and* complete); a failed verification after a
bounded improving walk means ``q`` is inside the polygon, i.e. the line
intersects ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hierdag import hierdag_multisearch
from repro.core.model import QuerySet
from repro.geometry.dk3d import DKHierarchy, dk_query_mu, dk_tangent_structure
from repro.mesh.engine import MeshEngine
from repro.mesh.topology import MeshShape
from repro.mesh.trace import traced

__all__ = [
    "LinePolyRun",
    "line_polyhedron_queries",
    "line_queries_on_structure",
    "line_keys",
    "brute_force_line_test",
]

_EPS = 1e-9


def line_keys(lines_p0: np.ndarray, lines_dir: np.ndarray) -> np.ndarray:
    """Pack lines into tangent-query keys ``[e1, e2, qx, qy]`` (m, 8)."""
    u = np.asarray(lines_dir, dtype=np.float64)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    # a stable perpendicular basis
    helper = np.where(
        np.abs(u[:, [0]]) < 0.9, np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    )
    e1 = np.cross(u, helper)
    e1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(u, e1)
    p0 = np.asarray(lines_p0, dtype=np.float64)
    q = np.stack([np.einsum("ij,ij->i", p0, e1), np.einsum("ij,ij->i", p0, e2)], axis=1)
    return np.concatenate([e1, e2, q], axis=1)


@dataclass
class LinePolyRun:
    """Per-line answers from a mesh line-polyhedron batch."""

    intersects: np.ndarray  # (m,) bool
    #: tangent vertex ids (point indices) for non-intersecting lines; -1 else
    tangent_left: np.ndarray
    tangent_right: np.ndarray
    #: tangent planes as (m, 2, 4) [normal, offset]; NaN for intersecting
    planes: np.ndarray
    mesh_steps: float
    #: tangent searches (two per line) whose host check took at least one
    #: local walk step: on the recorded workloads, both sides of every line
    #: the walk declares intersecting (EXPERIMENTS.md E6)
    improved: int


def _project(points: np.ndarray, key: np.ndarray) -> np.ndarray:
    e1, e2, q = key[0:3], key[3:6], key[6:8]
    return np.stack([points @ e1 - q[0], points @ e2 - q[1]], axis=1)


def _is_tangent(proj_nbrs: np.ndarray, proj_t: np.ndarray, eps: float = _EPS) -> bool:
    """All neighbours strictly on one side of the ray through proj_t from q=origin."""
    cross = proj_t[0] * proj_nbrs[:, 1] - proj_t[1] * proj_nbrs[:, 0]
    return bool((cross > eps).all() or (cross < -eps).all())


def line_polyhedron_queries(
    hier: DKHierarchy,
    lines_p0: np.ndarray,
    lines_dir: np.ndarray,
    engine: MeshEngine | None = None,
    c: int | None = 2,
    max_walk: int = 64,
) -> LinePolyRun:
    """Answer a batch of line queries against ``hier``'s polyhedron.

    Traced phases: host span ``linepoly:structure`` (DAG construction),
    engine spans ``linepoly:search`` (the Theorem 2 multisearch) and
    ``linepoly:verify`` (tangency verification + plane assembly).
    """
    with traced(None, "linepoly:structure"):
        structure, original = dk_tangent_structure(hier)
    return line_queries_on_structure(
        structure,
        original,
        hier.adjacency[0],
        hier.points,
        dk_query_mu(hier),
        lines_p0,
        lines_dir,
        engine=engine,
        c=c,
        max_walk=max_walk,
    )


def line_queries_on_structure(
    structure,
    original: np.ndarray,
    adj,
    pts: np.ndarray,
    mu: float,
    lines_p0: np.ndarray,
    lines_dir: np.ndarray,
    engine: MeshEngine | None = None,
    c: int | None = 2,
    max_walk: int = 64,
) -> LinePolyRun:
    """Answer line queries against an already-built tangent-search DAG.

    The construction-free core of :func:`line_polyhedron_queries`, shared
    with the serving layer, which restores ``structure`` / ``original`` /
    the finest-hull adjacency ``adj`` / ``pts`` / ``mu`` from a snapshot.
    """
    keys = line_keys(lines_p0, lines_dir)
    m = keys.shape[0]
    # two tangent searches per line: side +1 (left) and -1 (right)
    all_keys = np.concatenate([keys, keys], axis=0)
    sides = np.concatenate([np.ones(m), -np.ones(m)])
    if engine is None:
        engine = MeshEngine(MeshShape.for_size(max(structure.size, 2 * m)).side)
    qs = QuerySet.start(all_keys, 0, state_width=1)
    qs.state[:, 0] = sides
    t0 = engine.clock.time
    with traced(engine.clock, "linepoly:search"):
        finals = hierdag_multisearch(engine, structure, qs, mu=mu, c=c).final
    mesh_steps = engine.clock.time - t0

    cand = original[finals]  # point ids of candidate tangent vertices

    intersects = np.zeros(m, dtype=bool)
    t_left = np.full(m, -1, dtype=np.int64)
    t_right = np.full(m, -1, dtype=np.int64)
    planes = np.full((m, 2, 4), np.nan)

    with traced(engine.clock, "linepoly:verify"):
        improved = _verify_tangents(
            keys, lines_p0, lines_dir, cand, adj, pts, m, max_walk,
            intersects, t_left, t_right, planes,
        )
    return LinePolyRun(
        intersects=intersects,
        tangent_left=t_left,
        tangent_right=t_right,
        planes=planes,
        mesh_steps=mesh_steps,
        improved=improved,
    )


def _verify_tangents(
    keys, lines_p0, lines_dir, cand, adj, pts, m, max_walk,
    intersects, t_left, t_right, planes,
) -> int:
    """Local tangency verification + plane assembly; returns walk count."""
    improved = 0
    for i in range(m):
        key = keys[i]
        verdicts = []
        for j, side in ((i, 1.0), (i + m, -1.0)):
            t = int(cand[j])
            walked = 0
            while walked <= max_walk:
                nbrs = adj[t]
                proj_n = _project(pts[nbrs], key)
                proj_t = _project(pts[t][None, :], key)[0]
                if _is_tangent(proj_n, proj_t):
                    break
                # improving walk: move to the angularly more extreme neighbour
                cross = proj_t[0] * proj_n[:, 1] - proj_t[1] * proj_n[:, 0]
                gain = cross * side
                if gain.max() <= _EPS:
                    break  # local max but not tangent -> q inside
                t = int(nbrs[int(np.argmax(gain))])
                walked += 1
            if walked:
                improved += 1
            nbrs = adj[t]
            proj_n = _project(pts[nbrs], key)
            proj_t = _project(pts[t][None, :], key)[0]
            verdicts.append((t, _is_tangent(proj_n, proj_t)))
        (tl, okl), (tr, okr) = verdicts
        if okl and okr:
            t_left[i], t_right[i] = tl, tr
            u = np.asarray(lines_dir[i], dtype=np.float64)
            p0 = np.asarray(lines_p0[i], dtype=np.float64)
            for s, t in enumerate((tl, tr)):
                nrm = np.cross(u, pts[t] - p0)
                nn = np.linalg.norm(nrm)
                if nn > 1e-30:
                    nrm = nrm / nn
                    planes[i, s, :3] = nrm
                    planes[i, s, 3] = nrm @ p0
        else:
            intersects[i] = True
    return improved


def brute_force_line_test(
    hull_points: np.ndarray,
    hull_vertices: np.ndarray,
    lines_p0: np.ndarray,
    lines_dir: np.ndarray,
) -> np.ndarray:
    """Oracle: does each line hit the hull?  (q inside the projected polygon.)

    A point is inside a convex polygon iff it is inside the hull of the
    projected vertices; tested via scipy's 2-d hull equations.
    """
    from scipy.spatial import ConvexHull

    keys = line_keys(lines_p0, lines_dir)
    out = np.zeros(keys.shape[0], dtype=bool)
    pv = np.asarray(hull_points)[np.asarray(hull_vertices)]
    for i, key in enumerate(keys):
        proj = _project(pv, key)  # q at origin
        hull2 = ConvexHull(proj)
        eq = hull2.equations  # a.x + b <= 0 inside
        out[i] = bool((eq[:, 2] <= 1e-9).all())
    return out
