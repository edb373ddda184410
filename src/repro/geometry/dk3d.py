"""Dobkin–Kirkpatrick hierarchical representation of a convex polyhedron.

``P_1 = P`` (the full hull); ``P_{i+1}`` is the hull of ``V_i`` minus a
greedy bounded-degree independent set of hull vertices; the hierarchy
stops at a constant-size top polytope.  Height is O(log n) because each
round removes a constant fraction of the vertices.

The hierarchy supports **extremal queries** by coarse-to-fine descent: if
``v`` is the extreme vertex of ``P_{i+1}`` for a direction ``d``, the
extreme vertex of ``P_i`` is ``v`` or one of ``v``'s neighbours in
``P_i`` (the improving-path argument: any strictly better vertex of
``P_i`` was removed, and removed vertices have all their neighbours in
``V_{i+1}``, so an improving path of length 2 would contradict ``v``'s
optimality at level ``i+1``).  The same descent with an *angular*
objective answers 2-d tangent queries on the projection of ``P`` along a
line, which is the engine behind the multiple line–polyhedron queries of
Theorem 8.1.

As a search structure this is a hierarchical DAG: DAG level 0 is a
virtual root whose children are the top polytope's vertices; DAG level
``d+1`` holds the vertices of the next finer hull; a node's payload
carries the coordinates of its candidate set (itself + its new
neighbours), so the successor does O(1) local work.  ``n`` extremal /
tangent queries are then one multisearch, solved by Theorem 2.

Degree caveat: the candidate set of a vertex is its neighbour set in the
finer hull, which is O(1) *amortized* but not worst-case bounded for all
inputs; the builder enforces ``max_candidates`` (default 32) and raises
if exceeded (random workloads stay far below — see tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import STOP, SearchStructure
from repro.geometry.hull3d import Hull3D, convex_hull_3d
from repro.mesh.construct import Construction
from repro.util.rng import make_rng

__all__ = [
    "DKHierarchy",
    "build_dk_hierarchy",
    "dk_support_structure",
    "dk_tangent_structure",
    "dk_tangent_successor",
    "dk_query_mu",
    "dk_tangent_snapshot_arrays",
    "dk_tangent_from_snapshot",
]


@dataclass
class DKHierarchy:
    """The hierarchy, finest hull first (``hulls[0] = P``)."""

    points: np.ndarray  # (n, 3) original points
    hulls: list[Hull3D]  # hulls[0] finest ... hulls[-1] coarsest
    #: per level, adjacency dict vertex -> sorted neighbour array
    adjacency: list[dict[int, np.ndarray]]

    @property
    def n_levels(self) -> int:
        return len(self.hulls)

    def support_brute(self, direction: np.ndarray) -> int:
        return self.hulls[0].support(direction)

    def support(self, direction: np.ndarray) -> int:
        """Sequential coarse-to-fine extreme-vertex descent."""
        d = np.asarray(direction, dtype=np.float64)
        lvl = self.n_levels - 1
        vs = self.hulls[lvl].vertices
        v = int(vs[np.argmax(self.points[vs] @ d)])
        for lvl in range(self.n_levels - 2, -1, -1):
            cand = np.concatenate([[v], self.adjacency[lvl][v]])
            v = int(cand[np.argmax(self.points[cand] @ d)])
        return v


def _hull_adjacency(hull: Hull3D) -> dict[int, np.ndarray]:
    adj: dict[int, set[int]] = {int(v): set() for v in hull.vertices}
    for a, b in hull.edges():
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    return {v: np.array(sorted(s), dtype=np.int64) for v, s in adj.items()}


def build_dk_hierarchy(
    points: np.ndarray,
    seed=0,
    max_degree: int = 8,
    stop_size: int = 8,
    max_rounds: int = 64,
    construct: Construction | None = None,
) -> DKHierarchy:
    """Build the hierarchy over the hull of ``points``.

    Traced phases: ``dk3d:build`` wrapping ``dk3d:base-hull`` and one
    ``dk3d:level`` per coarsening round.  The spans carry modelled mesh
    steps charged to ``construct`` (a fresh
    :class:`~repro.mesh.construct.Construction` when None): every level's
    independent-set selection and hull rebuild run on a submesh sized for
    that level, so the geometrically shrinking rounds sum to O(sqrt(n)).
    Outputs are byte-identical with or without a construction attached.
    """
    points = np.asarray(points, dtype=np.float64)
    rng = make_rng(seed)
    if construct is None:
        construct = Construction(max(points.shape[0], 1))
    with construct.span("dk3d:build"):
        with construct.span("dk3d:base-hull"):
            # the draw feeds nothing; it keeps ``rng`` at the state the
            # independent-set choices below were pinned with
            rng.integers(2**31)
            hull = convex_hull_3d(points, construct=construct)
        hulls = [hull]
        adjacency = [_hull_adjacency(hull)]
        while hulls[-1].vertices.size > stop_size and len(hulls) < max_rounds:
            with construct.span("dk3d:level"):
                cur = hulls[-1]
                adj = adjacency[-1]
                neighbors = {v: set(int(x) for x in nb) for v, nb in adj.items()}
                chosen = construct.independent_set(
                    neighbors,
                    set(neighbors.keys()),
                    max_degree=max_degree,
                    seed=rng,
                    n=cur.vertices.size,
                )
                keep = np.array(sorted(set(int(v) for v in cur.vertices) - set(chosen)))
                if keep.size < 4 or not chosen:
                    break
                rng.integers(2**31)  # unused; see the base-hull draw
                nxt = convex_hull_3d(points[keep], construct=construct)
                # re-index faces back to original point ids
                remapped = Hull3D(
                    points=points,
                    faces=keep[nxt.faces],
                    normals=nxt.normals,
                    offsets=nxt.offsets,
                )
                hulls.append(remapped)
                adjacency.append(_hull_adjacency(remapped))
        return DKHierarchy(points=points, hulls=hulls, adjacency=adjacency)


# ---------------------------------------------------------------------------
# search-structure construction
# ---------------------------------------------------------------------------


def _dag_arrays(hier: DKHierarchy, max_candidates: int, construct=None):
    """Flat DAG arrays shared by the support and tangent structures.

    DAG level 0: virtual root (children = coarsest hull's vertices).
    DAG level d (1..L): vertices of hull ``L - d`` (coarsest at d=1).
    Node payload: candidate coordinates aligned with adjacency slots;
    slot 0 of a non-root node is "stay on this vertex" (the child copy of
    itself one level finer).  The ``dk3d:dag-arrays`` span charges the
    modelled flattening cost: sort the V DAG nodes by level, route each
    node's candidate record to its slot.
    """
    V = 1 + sum(int(h.vertices.size) for h in hier.hulls)
    if construct is None:
        construct = Construction(V)
    with construct.span("dk3d:dag-arrays"):
        out = _dag_arrays_body(hier, max_candidates)
        level = out[2]
        construct.sort(level, n=V)
        construct.route(np.arange(V), level, n=V)
        return out


def _dag_arrays_body(hier: DKHierarchy, max_candidates: int):
    L = hier.n_levels
    level_vertices = [hier.hulls[L - d].vertices for d in range(1, L + 1)]
    sizes = [1] + [vs.size for vs in level_vertices]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    V = int(starts[-1])

    # map (dag level d >= 1, original vertex id) -> dag node id
    maps: list[dict[int, int]] = []
    for d in range(1, L + 1):
        vs = level_vertices[d - 1]
        maps.append({int(v): int(starts[d] + j) for j, v in enumerate(vs)})

    adjacency = np.full((V, max_candidates), -1, dtype=np.int64)
    payload = np.zeros((V, 3 * max_candidates))
    level = np.zeros(V, dtype=np.int64)
    original = np.full(V, -1, dtype=np.int64)

    # root
    top = level_vertices[0]
    if top.size > max_candidates:
        raise ValueError(f"top polytope has {top.size} > {max_candidates} vertices")
    adjacency[0, : top.size] = [maps[0][int(v)] for v in top]
    payload[0, : 3 * top.size] = hier.points[top].reshape(-1)

    for d in range(1, L + 1):
        vs = level_vertices[d - 1]
        base = int(starts[d])
        level[base : base + vs.size] = d
        original[base : base + vs.size] = vs
        if d == L:
            continue  # finest level: STOP nodes
        finer_adj = hier.adjacency[L - d - 1]  # adjacency at the next finer hull
        finer_map = maps[d]
        for j, v in enumerate(vs):
            v = int(v)
            cand = [v] + [int(u) for u in finer_adj[v]]
            if len(cand) > max_candidates:
                raise ValueError(
                    f"vertex {v} has {len(cand)} candidates > {max_candidates}"
                )
            node = base + j
            adjacency[node, : len(cand)] = [finer_map[u] for u in cand]
            payload[node, : 3 * len(cand)] = hier.points[cand].reshape(-1)
    return adjacency, payload, level, original, L


def dk_support_structure(
    hier: DKHierarchy, max_candidates: int = 32, construct=None
) -> tuple[SearchStructure, np.ndarray]:
    """Extreme-vertex (support) queries as a hierarchical-DAG multisearch.

    Query key: the direction ``(3,)``.  The search ends on the finest
    level's node for the extreme vertex; ``original`` maps DAG node ids
    back to point ids.
    """
    adjacency, payload, level, original, L = _dag_arrays(
        hier, max_candidates, construct=construct
    )
    D = max_candidates

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        nxt = np.full(m, STOP, dtype=np.int64)
        internal = vlevel < L
        if internal.any():
            adj = vadjacency[internal]
            coords = vpayload[internal].reshape(-1, D, 3)
            d = np.asarray(qkey)[internal]
            scores = np.einsum("mdc,mc->md", coords, d)
            scores[adj < 0] = -np.inf
            best = np.argmax(scores, axis=1)
            nxt[internal] = adj[np.arange(adj.shape[0]), best]
        return nxt, qstate

    structure = SearchStructure(
        adjacency=adjacency,
        payload=payload,
        level=level,
        successor=successor,
        directed=True,
    )
    return structure, original


def dk_tangent_structure(
    hier: DKHierarchy, max_candidates: int = 32, construct=None
) -> tuple[SearchStructure, np.ndarray]:
    """2-d tangent queries on the projection of ``P`` along a line.

    Query key (8,): ``[e1 (3), e2 (3), qx, qy]`` — an orthonormal basis of
    the plane perpendicular to the line, and the line's projection ``q``.
    State (1,): ``side`` (+1 = left/CCW-most tangent, -1 = right) — set
    before the search and never modified by it.

    At each level the successor picks the angularly most-extreme candidate
    around ``q`` (valid because the candidates' projected angular cone
    from an exterior ``q`` spans less than pi).  When ``q`` is inside the
    projected polygon the descent produces a non-tangent witness, which
    the application layer detects by the local neighbour test (see
    :mod:`repro.apps.linepoly`).
    """
    adjacency, payload, level, original, L = _dag_arrays(
        hier, max_candidates, construct=construct
    )
    structure = SearchStructure(
        adjacency=adjacency,
        payload=payload,
        level=level,
        successor=dk_tangent_successor(L, max_candidates),
        directed=True,
    )
    return structure, original


def dk_tangent_successor(L: int, max_candidates: int):
    """The angular-extreme tangent descent over an ``L``-level DAG.

    A factory (rather than a closure inside :func:`dk_tangent_structure`)
    so a snapshot-restored structure can be rewired from its flat arrays
    without re-running construction.
    """
    D = max_candidates

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        nxt = np.full(m, STOP, dtype=np.int64)
        internal = vlevel < L
        if internal.any():
            adj = vadjacency[internal]
            coords = vpayload[internal].reshape(-1, D, 3)
            k = np.asarray(qkey)[internal]
            e1, e2, q = k[:, 0:3], k[:, 3:6], k[:, 6:8]
            side = qstate[internal, 0]
            px = np.einsum("mdc,mc->md", coords, e1) - q[:, 0:1]
            py = np.einsum("mdc,mc->md", coords, e2) - q[:, 1:2]
            live = adj >= 0
            # tournament scan: the most-extreme candidate under the CCW
            # comparator cross(a, b) * side < 0 means b beats a
            mi = adj.shape[0]
            best = np.zeros(mi, dtype=np.int64)
            for slot in range(1, D):
                cand_live = live[:, slot]
                bx = px[np.arange(mi), best]
                by = py[np.arange(mi), best]
                cross = bx * py[:, slot] - by * px[:, slot]
                better = cand_live & (cross * side > 0)
                best[better] = slot
            nxt[internal] = adj[np.arange(mi), best]
        return nxt, qstate

    return successor


def dk_query_mu(hier: DKHierarchy) -> float:
    """The measured level growth factor fed to ``hierdag_multisearch``."""
    return max(
        1.1,
        (hier.hulls[0].vertices.size / max(hier.hulls[-1].vertices.size, 1))
        ** (1.0 / max(hier.n_levels - 1, 1)),
    )


def dk_tangent_snapshot_arrays(
    hier: DKHierarchy, max_candidates: int = 32
) -> tuple[dict[str, np.ndarray], dict]:
    """Snapshot hook: tangent structure + the finest-hull neighbourhoods.

    Persists everything the line-polyhedron service needs at query time:
    the flat DAG arrays, the DAG-node -> point-id map, the points, and
    the finest hull's adjacency (CSR: vertex ids, offsets, concatenated
    neighbour lists) used by the local tangency verification.
    """
    structure, original = dk_tangent_structure(hier, max_candidates)
    adj0 = hier.adjacency[0]
    verts = np.array(sorted(adj0), dtype=np.int64)
    counts = np.array([adj0[int(v)].size for v in verts], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    flat = (
        np.concatenate([adj0[int(v)] for v in verts])
        if verts.size
        else np.zeros(0, dtype=np.int64)
    )
    arrays = {
        "adjacency": structure.adjacency,
        "payload": structure.payload,
        "level": structure.level,
        "original": original,
        "points": hier.points,
        "hull_vertices": verts,
        "hull_offsets": offsets,
        "hull_neighbors": flat,
    }
    meta = {
        "levels": int(hier.n_levels),
        "max_candidates": int(max_candidates),
        "mu": float(dk_query_mu(hier)),
    }
    return arrays, meta


def dk_tangent_from_snapshot(
    arrays: dict[str, np.ndarray], meta: dict
) -> tuple[SearchStructure, np.ndarray, np.ndarray, dict[int, np.ndarray], float]:
    """Inverse of :func:`dk_tangent_snapshot_arrays` (no construction).

    Returns ``(structure, original, points, finest_adjacency, mu)``.
    """
    structure = SearchStructure(
        adjacency=np.asarray(arrays["adjacency"], dtype=np.int64),
        payload=np.asarray(arrays["payload"], dtype=np.float64),
        level=np.asarray(arrays["level"], dtype=np.int64),
        successor=dk_tangent_successor(
            int(meta["levels"]), int(meta["max_candidates"])
        ),
        directed=True,
    )
    verts = np.asarray(arrays["hull_vertices"], dtype=np.int64)
    offsets = np.asarray(arrays["hull_offsets"], dtype=np.int64)
    flat = np.asarray(arrays["hull_neighbors"], dtype=np.int64)
    adj = {
        int(v): flat[int(offsets[j]) : int(offsets[j + 1])]
        for j, v in enumerate(verts)
    }
    return (
        structure,
        np.asarray(arrays["original"], dtype=np.int64),
        np.asarray(arrays["points"], dtype=np.float64),
        adj,
        float(meta["mu"]),
    )
