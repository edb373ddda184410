"""Kirkpatrick's subdivision hierarchy for planar point location [Kir83].

Construction (sequential, per the DESIGN.md substitution: the paper
delegates mesh construction to [DSS88] and contributes the query phase):

1. enclose the input subdivision in a large bounding triangle and take a
   triangulation of everything (scipy Delaunay generates the workload's
   base subdivision; any triangulation works);
2. repeatedly remove a greedy independent set of non-corner vertices of
   degree <= 8, retriangulate each star-shaped hole by ear clipping, and
   link every new triangle to the old triangles its interior overlaps;
3. stop when only the bounding triangle remains.

The result is a hierarchical DAG (paper Figure 1's shape, with the
sandwiched level-size law): DAG level 0 is the bounding triangle, level
``i+1`` holds the triangles of the next finer triangulation, and a point
location query descends by testing which child triangle contains the
point — O(1) work per node because a node's payload carries its <= 8
children's coordinates (O(1) words).  ``n`` point locations are then one
multisearch, solved by Theorem 2 in ``O(sqrt(n))`` (experiment E7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from repro.core.model import STOP, SearchStructure
from repro.geometry.primitives import (
    orient2d,
    point_in_triangle,
    triangles_overlap_matrix,
)
from repro.geometry.triangulate import ear_clip
from repro.mesh.construct import Construction
from repro.util.rng import make_rng

__all__ = [
    "KirkpatrickHierarchy",
    "build_kirkpatrick",
    "kirkpatrick_structure",
    "kirkpatrick_successor",
    "kirkpatrick_snapshot_arrays",
    "kirkpatrick_from_snapshot",
]

#: max children a DAG node may have (removed vertices have degree <= 8,
#: so a hole has <= 8 old triangles; surviving triangles have 1 child)
MAX_CHILDREN = 10


@dataclass
class _Level:
    """One triangulation level: triangles as vertex-index triples."""

    triangles: np.ndarray  # (T, 3) int64
    #: children[t] = indices of overlapping triangles in the next FINER level
    children: list[list[int]] = field(default_factory=list)


@dataclass
class KirkpatrickHierarchy:
    """The hierarchy, finest level first."""

    points: np.ndarray  # (n + 3, 2); the last 3 are the bounding corners
    levels: list[_Level]  # levels[0] = base (finest) ... levels[-1] = 1 triangle

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def base_triangles(self) -> np.ndarray:
        return self.levels[0].triangles

    def locate_brute(self, q: np.ndarray) -> np.ndarray:
        """Oracle: base-level triangle containing each query point (or -1)."""
        q = np.atleast_2d(q)
        tris = self.base_triangles
        a = self.points[tris[:, 0]]
        b = self.points[tris[:, 1]]
        c = self.points[tris[:, 2]]
        out = np.full(q.shape[0], -1, dtype=np.int64)
        for i, p in enumerate(q):
            inside = point_in_triangle(p[None, :], a, b, c)
            hits = np.flatnonzero(inside)
            if hits.size:
                out[i] = hits[0]
        return out

    def locate(self, q: np.ndarray) -> np.ndarray:
        """Sequential hierarchy descent (the per-query O(log n) search)."""
        q = np.atleast_2d(q)
        out = np.full(q.shape[0], -1, dtype=np.int64)
        pts = self.points
        for i, p in enumerate(q):
            lvl = len(self.levels) - 1
            tri_idx = 0
            tris = self.levels[lvl].triangles
            t = tris[tri_idx]
            if not point_in_triangle(p, pts[t[0]], pts[t[1]], pts[t[2]]):
                continue  # outside the bounding triangle
            while lvl > 0:
                found = -1
                for ch in self.levels[lvl].children[tri_idx]:
                    t = self.levels[lvl - 1].triangles[ch]
                    if point_in_triangle(p, pts[t[0]], pts[t[1]], pts[t[2]]):
                        found = ch
                        break
                if found < 0:
                    raise RuntimeError("hierarchy descent lost the point")
                tri_idx = found
                lvl -= 1
            out[i] = tri_idx
        return out


def _hole_polygon(v: int, tris: list[tuple[int, int, int]]) -> list[int]:
    """Order the link of vertex ``v`` (edges opposite ``v``) into a cycle.

    Chains the undirected link edges; orientation is normalized by the
    caller (shoelace sign), so winding consistency is not assumed here.
    """
    edges: dict[int, list[int]] = {}
    for t in tris:
        rest = [x for x in t if x != v]
        edges.setdefault(rest[0], []).append(rest[1])
        edges.setdefault(rest[1], []).append(rest[0])
    start = next(iter(edges))
    cycle = [start]
    prev = -1
    while True:
        cur = cycle[-1]
        nbrs = [w for w in edges[cur] if w != prev]
        if not nbrs:
            break
        nxt_v = nbrs[0]
        if nxt_v == start:
            break
        cycle.append(nxt_v)
        prev = cur
        if len(cycle) > len(edges) + 1:
            raise RuntimeError("link of vertex is not a simple cycle")
    if len(cycle) != len(edges):
        raise RuntimeError("link of vertex is not a single cycle")
    return cycle


def build_kirkpatrick(
    points: np.ndarray,
    seed=0,
    max_degree: int = 8,
    bound_scale: float = 8.0,
    construct: Construction | None = None,
) -> KirkpatrickHierarchy:
    """Build the hierarchy over a Delaunay triangulation of ``points``.

    Traced phases: ``kirkpatrick:build`` wrapping ``kirkpatrick:delaunay``
    (the base triangulation) and one ``kirkpatrick:round`` per removal
    round.  The spans carry *modelled mesh steps* charged to
    ``construct`` (a fresh :class:`Construction` when None): each round
    sorts its incidence records, selects the independent set, and
    retriangulates the holes in parallel on a submesh sized for that
    round, so the total construction cost is O(sqrt(n)) — wall time stays
    recorded alongside.  Outputs are byte-identical with or without a
    construction attached.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {points.shape}")
    if construct is None:
        construct = Construction(points.shape[0] + 3)
    with construct.span("kirkpatrick:build"):
        return _build_kirkpatrick(points, seed, max_degree, bound_scale, construct)


def _build_kirkpatrick(
    points: np.ndarray,
    seed,
    max_degree: int,
    bound_scale: float,
    construct: Construction,
) -> KirkpatrickHierarchy:
    rng = make_rng(seed)
    lo, hi = points.min(axis=0), points.max(axis=0)
    center = (lo + hi) / 2
    radius = float(np.max(hi - lo)) * bound_scale + 1.0
    corners = center + radius * np.array(
        [[0.0, 2.0], [-1.9, -1.2], [1.9, -1.2]]
    )
    all_pts = np.vstack([points, corners])
    n = points.shape[0]
    corner_ids = {n, n + 1, n + 2}

    with construct.span("kirkpatrick:delaunay"):
        base = Delaunay(all_pts).simplices.astype(np.int64)
        # normalize orientation CCW
        a, b, c = all_pts[base[:, 0]], all_pts[base[:, 1]], all_pts[base[:, 2]]
        flip = orient2d(a, b, c) < 0
        base[flip] = base[flip][:, [0, 2, 1]]
        # modelled mesh cost: sort the points into mesh order, then route
        # the triangle records of the base triangulation to their slots
        construct.sort(all_pts[:, 0], n=all_pts.shape[0])
        construct.route(
            np.arange(base.shape[0]), base[:, 0], n=base.shape[0]
        )

    levels = [_Level(triangles=base)]
    current = [tuple(int(x) for x in t) for t in base]

    round_no = 0
    while True:
        verts: set[int] = set()
        for t in current:
            verts.update(t)
        removable = verts - corner_ids
        if not removable:
            break
        round_no += 1
        with construct.span("kirkpatrick:round"):
            T = len(current)
            # modelled mesh cost of the round's graph bookkeeping: sort the
            # 3T (vertex, triangle) incidence records, scan for run starts
            tri_arr = np.array(current, dtype=np.int64)
            construct.sort(tri_arr.ravel(), n=3 * T)
            construct.scan(np.ones(3 * T, dtype=np.int64), n=3 * T)
            neighbors: dict[int, set[int]] = {v: set() for v in verts}
            incident: dict[int, list[int]] = {v: [] for v in verts}
            for ti, t in enumerate(current):
                for x in t:
                    incident[x].append(ti)
                for x in t:
                    for y in t:
                        if x != y:
                            neighbors[x].add(y)
            chosen = construct.independent_set(
                neighbors, removable, max_degree=max_degree, seed=rng, n=len(verts)
            )
            if not chosen:
                raise RuntimeError("no removable vertex found")  # pragma: no cover

            removed_tris: set[int] = set()
            new_tris: list[tuple[int, int, int]] = []
            #: per new triangle, the old-level triangle indices it overlaps
            links: list[list[int]] = []
            # holes of one independent set are disjoint: retriangulate them
            # in parallel, the round pays the costliest hole
            with construct.parallel() as par:
                for v in chosen:
                    with par.branch():
                        hole_tris = incident[v]
                        removed_tris.update(hole_tris)
                        cycle = _hole_polygon(v, [current[ti] for ti in hole_tris])
                        poly = all_pts[cycle]
                        # ensure CCW for ear clipping
                        area2 = float(
                            np.sum(
                                poly[:, 0] * np.roll(poly[:, 1], -1)
                                - np.roll(poly[:, 0], -1) * poly[:, 1]
                            )
                        )
                        if area2 < 0:
                            cycle = cycle[::-1]
                            poly = all_pts[cycle]
                        tri_idx = ear_clip(poly, construct=construct)
                        hole_new = np.asarray(cycle, dtype=np.int64)[tri_idx]
                        overlap = triangles_overlap_matrix(
                            all_pts[hole_new], all_pts[tri_arr[hole_tris]]
                        )
                        if not overlap.any(axis=1).all():
                            raise RuntimeError(
                                "new triangle overlaps no old triangle"
                            )
                        new_tris.extend(map(tuple, hole_new.tolist()))
                        links.extend(
                            [hole_tris[j] for j in np.flatnonzero(row)]
                            for row in overlap
                        )

            survivors = [ti for ti in range(len(current)) if ti not in removed_tris]
            next_tris = [current[ti] for ti in survivors] + new_tris
            next_children = [[ti] for ti in survivors] + links
            next_arr = np.array(next_tris, dtype=np.int64)
            # compress the survivors and route the next level into place
            construct.scan(np.ones(T, dtype=np.int64), n=T)
            construct.route(
                np.arange(next_arr.shape[0]), next_arr[:, 0], n=next_arr.shape[0]
            )
            levels.append(
                _Level(
                    triangles=next_arr,
                    children=next_children,
                )
            )
            current = next_tris
        if round_no > 10 * (n + 4):
            raise RuntimeError("hierarchy construction did not converge")

    return KirkpatrickHierarchy(points=all_pts, levels=levels)


def kirkpatrick_structure(
    hier: KirkpatrickHierarchy, construct: Construction | None = None
) -> tuple[SearchStructure, float]:
    """The hierarchy as a hierarchical-DAG SearchStructure.

    DAG level 0 = the single coarsest triangle; level ``i+1`` = the next
    finer triangulation.  Node payload: ``[own 6 coords, child coords
    (MAX_CHILDREN * 6)]``; adjacency: child DAG-vertex ids.  Returns the
    structure and the measured level growth factor ``mu``.  The
    ``kirkpatrick:structure`` span charges the modelled cost of the DAG
    flattening (sort nodes by level, route them to their slots).
    """
    levels = hier.levels  # finest first
    L = len(levels)
    # DAG level d corresponds to triangulation level (L - 1 - d)
    sizes = [levels[L - 1 - d].triangles.shape[0] for d in range(L)]
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    V = int(starts[-1])
    adjacency = np.full((V, MAX_CHILDREN), -1, dtype=np.int64)
    payload = np.zeros((V, 6 + 6 * MAX_CHILDREN))
    level = np.zeros(V, dtype=np.int64)
    pts = hier.points
    if construct is None:
        construct = Construction(V)

    with construct.span("kirkpatrick:structure"):
        for d in range(L):
            tl = L - 1 - d  # triangulation level
            tris = levels[tl].triangles
            base = int(starts[d])
            level[base : base + tris.shape[0]] = d
            coords = pts[tris].reshape(tris.shape[0], 6)
            payload[base : base + tris.shape[0], :6] = coords
            if d < L - 1:
                child_base = int(starts[d + 1])
                for ti, kids in enumerate(levels[tl].children):
                    if len(kids) > MAX_CHILDREN:
                        raise RuntimeError(
                            f"triangle has {len(kids)} children > {MAX_CHILDREN}"
                        )
                    for slot, ch in enumerate(kids):
                        adjacency[base + ti, slot] = child_base + ch
                        ct = levels[tl - 1].triangles[ch]
                        payload[base + ti, 6 + 6 * slot : 12 + 6 * slot] = pts[
                            ct
                        ].reshape(6)
        # modelled mesh cost: sort nodes by DAG level, route each node's
        # record (adjacency + payload ride as O(1) words) to its slot
        construct.sort(level, n=V)
        construct.route(np.arange(V), level, n=V)

    h = L - 1

    structure = SearchStructure(
        adjacency=adjacency,
        payload=payload,
        level=level,
        successor=kirkpatrick_successor(h),
        directed=True,
    )
    mu = (sizes[-1] / max(sizes[0], 1)) ** (1.0 / max(h, 1)) if h >= 1 else 2.0
    return structure, float(max(mu, 1.05))


def kirkpatrick_successor(h: int):
    """The point-in-child-triangle descent over a DAG of height ``h``.

    A factory rather than a closure inside :func:`kirkpatrick_structure`
    so a snapshot-restored structure (:mod:`repro.serve.snapshot`) can be
    rewired from its flat arrays alone, without re-running construction.
    """

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        nxt = np.full(m, STOP, dtype=np.int64)
        internal = vlevel < h
        if internal.any():
            q = np.asarray(qkey)[internal]  # (mi, 2)
            adj = vadjacency[internal]
            pl = vpayload[internal]
            # every child slot at once; the first containing one wins
            tri = pl[:, 6:].reshape(q.shape[0], MAX_CHILDREN, 3, 2)
            ok = (adj >= 0) & point_in_triangle(
                q[:, None], tri[:, :, 0], tri[:, :, 1], tri[:, :, 2]
            )
            first = np.argmax(ok, axis=1)
            nxt[internal] = np.where(
                ok.any(axis=1), adj[np.arange(adj.shape[0]), first], STOP
            )
        return nxt, qstate

    return successor


def kirkpatrick_snapshot_arrays(
    structure: SearchStructure, mu: float
) -> tuple[dict[str, np.ndarray], dict]:
    """Snapshot hook: the built structure as flat arrays + scalar meta.

    Everything a restored point-location service needs rides in the
    arrays: the DAG's per-level layout is recoverable from ``level``
    (nodes are contiguous per level, coarsest first), so the hierarchy
    object itself is not persisted.
    """
    arrays = {
        "adjacency": structure.adjacency,
        "payload": structure.payload,
        "level": structure.level,
    }
    meta = {"height": int(structure.level.max(initial=0)), "mu": float(mu)}
    return arrays, meta


def kirkpatrick_from_snapshot(
    arrays: dict[str, np.ndarray], meta: dict
) -> tuple[SearchStructure, float]:
    """Inverse of :func:`kirkpatrick_snapshot_arrays` (no construction)."""
    structure = SearchStructure(
        adjacency=np.asarray(arrays["adjacency"], dtype=np.int64),
        payload=np.asarray(arrays["payload"], dtype=np.float64),
        level=np.asarray(arrays["level"], dtype=np.int64),
        successor=kirkpatrick_successor(int(meta["height"])),
        directed=True,
    )
    return structure, float(meta["mu"])
