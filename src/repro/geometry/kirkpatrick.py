"""Kirkpatrick's subdivision hierarchy for planar point location [Kir83].

Construction (sequential, per the DESIGN.md substitution: the paper
delegates mesh construction to [DSS88] and contributes the query phase):

1. enclose the input subdivision in a large bounding triangle and take a
   triangulation of everything (scipy Delaunay generates the workload's
   base subdivision; any triangulation works);
2. repeatedly remove a greedy independent set of non-corner vertices of
   degree <= 8, retriangulate each star-shaped hole by ear clipping, and
   link every new triangle to the old triangles its interior overlaps.
   The holes of one independent set are disjoint, so a round handles all
   of them at once, in arrays padded to its largest hole: one lockstep
   ear clip (:func:`repro.geometry.triangulate.ear_clip_many`) and one
   batched overlap test;
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

from repro.core.model import STOP, SearchStructure
from repro.geometry.primitives import (
    orient2d,
    point_in_triangle,
    triangles_overlap_pairs,
)
from repro.geometry.triangulate import ear_clip_many, signed_area2
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
    #: the children of triangle t, i.e. the indices of the triangles of the
    #: next FINER level it overlaps, are
    #: ``child_ids[child_ptr[t]:child_ptr[t + 1]]`` (none on the finest level)
    child_ptr: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    child_ids: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )


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
                ptr, ids = self.levels[lvl].child_ptr, self.levels[lvl].child_ids
                for ch in ids[ptr[tri_idx] : ptr[tri_idx + 1]]:
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


def _neighbors(tris: np.ndarray) -> dict[int, set[int]]:
    """Vertex adjacency of a triangulation: ``{v: {w : vw is an edge}}``."""
    src = tris[:, [0, 1, 2, 1, 2, 0]].ravel()
    dst = tris[:, [1, 2, 0, 0, 1, 2]].ravel()
    width = int(tris.max()) + 1
    code = np.sort(src * width + dst)
    code = code[np.r_[True, code[1:] != code[:-1]]]  # each edge once
    verts = code // width
    first = np.flatnonzero(np.r_[True, verts[1:] != verts[:-1]])
    nbrs = (code % width).tolist()
    bounds = first.tolist() + [len(nbrs)]
    return {
        v: set(nbrs[lo:hi])
        for v, lo, hi in zip(verts[first].tolist(), bounds, bounds[1:])
    }


#: the two vertices of a triangle other than the one at position p, in
#: triangle order
_REST = np.array([[1, 2], [0, 2], [0, 1]])


def _hole_polygons(
    tris: np.ndarray, chosen: list[int], n_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The holes left by removing the independent set ``chosen``.

    Returns ``(old, sizes, cycles)``.  ``old`` lists the indices of the
    triangles around each removed vertex, hole after hole in ``chosen``
    order, ascending within a hole; ``sizes[h]`` is the number of them
    around ``chosen[h]``, and ``cycles[h]`` is its link (the vertices
    opposite it) as a cycle, padded to the largest hole ``K``.

    Each cycle starts at the first of the two link vertices of the first
    incident triangle, in that triangle's vertex order, and turns towards
    the second: the undirected link edges are chained from there, so
    winding consistency is not assumed here; the caller normalizes
    orientation (shoelace sign).
    """
    hole_of = np.full(n_points, -1, dtype=np.int64)
    hole_of[chosen] = np.arange(len(chosen))
    at = hole_of[tris]
    # row-major, so each hole's triangles come in ascending order; the
    # set is independent, so a triangle lies around at most one hole
    tri_idx, pos = np.nonzero(at >= 0)
    hole = at[tri_idx, pos]
    by_hole = np.argsort(hole, kind="stable")
    tri_idx, pos, hole = tri_idx[by_hole], pos[by_hole], hole[by_hole]
    H = len(chosen)
    sizes = np.bincount(hole, minlength=H)
    K = int(sizes.max())
    firsts = np.cumsum(sizes) - sizes

    # link edges as half-edges (rest0 -> rest1, rest1 -> rest0) in
    # triangle order; every link vertex must have exactly two
    rest = tris[tri_idx[:, None], _REST[pos]]
    he_key = np.repeat(hole, 2) * n_points + rest.ravel()
    he_dst = rest[:, ::-1].ravel()
    order = np.argsort(he_key, kind="stable")
    key = he_key[order]
    if not (
        (key[0::2] == key[1::2]).all() and (key[2::2] != key[1:-1:2]).all()
    ):
        raise RuntimeError("link of vertex is not a simple cycle")
    key, nb0, nb1 = key[0::2], he_dst[order][0::2], he_dst[order][1::2]

    rows = np.arange(H)
    cycles = np.empty((H, K + 1), dtype=np.int64)
    cycles[:, 0] = rest[firsts, 0]
    cycles[:, 1] = rest[firsts, 1]
    for step in range(2, K + 1):
        prev, cur = cycles[:, step - 2], cycles[:, step - 1]
        at_cur = np.searchsorted(key, rows * n_points + cur)
        cycles[:, step] = np.where(nb0[at_cur] != prev, nb0[at_cur], nb1[at_cur])
    # the walk must first come back to its start after exactly ``size``
    # steps, i.e. the link is one cycle through all its vertices
    back = cycles[:, 1:] == cycles[:, :1]
    if not (np.argmax(back, axis=1) + 1 == sizes).all():
        raise RuntimeError("link of vertex is not a single cycle")
    return tri_idx, sizes, cycles[:, :K]


def _remove(
    pts: np.ndarray, tris: np.ndarray, chosen: list[int], construct: Construction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One removal round: take out ``chosen`` and retriangulate the holes.

    Returns the next level's triangles — the survivors in order, then each
    hole's new triangles in ``chosen`` order — and its children in
    :class:`_Level` form: a survivor's child is its own old triangle, a
    new triangle's children are the hole's old triangles its interior
    overlaps, in ascending order.
    """
    old, sizes, cycles = _hole_polygons(tris, chosen, pts.shape[0])
    H, K = cycles.shape
    pos = np.arange(K)
    # ensure CCW for ear clipping
    flip = signed_area2(pts[cycles], sizes) < 0
    rev = np.where(pos < sizes[:, None], sizes[:, None] - 1 - pos, pos)
    cycles = np.where(flip[:, None], np.take_along_axis(cycles, rev, axis=1), cycles)
    # the holes of one independent set are disjoint: retriangulate them
    # at once, the round pays the costliest hole (one charge)
    local = ear_clip_many(pts[cycles], sizes, construct=construct)
    hole = np.repeat(np.arange(H), sizes - 2)
    new = cycles[hole[:, None], local]

    # link every new triangle to the old triangles of its hole it overlaps:
    # one overlap test over all (new, old) pairs of every hole, ordered by
    # new triangle, then by old triangle
    pair_new, slot = np.nonzero(pos[None, :] < sizes[hole][:, None])
    pair_old = (np.cumsum(sizes) - sizes)[hole[pair_new]] + slot
    overlap = triangles_overlap_pairs(pts[new], pts[tris[old]], pair_new, pair_old)
    links = np.bincount(pair_new[overlap], minlength=new.shape[0])
    if not links.all():
        raise RuntimeError("new triangle overlaps no old triangle")

    removed = np.zeros(tris.shape[0], dtype=bool)
    removed[old] = True
    survivors = np.flatnonzero(~removed)
    counts = np.concatenate([np.ones(survivors.size, dtype=np.int64), links])
    child_ptr = np.concatenate([[0], np.cumsum(counts)])
    child_ids = np.concatenate([survivors, old[pair_old[overlap]]])
    return np.concatenate([tris[survivors], new]), child_ptr, child_ids


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
        # lazy import: restoring a snapshot needs no scipy, so a serving
        # worker's start does not pay for it
        from scipy.spatial import Delaunay

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
    tris = base

    round_no = 0
    while True:
        # a set built in triangle order, as the greedy selection's
        # candidate order (hence the chosen set) depends on it
        verts = set(tris.ravel().tolist())
        removable = verts - corner_ids
        if not removable:
            break
        round_no += 1
        with construct.span("kirkpatrick:round"):
            T = tris.shape[0]
            # modelled mesh cost of the round's graph bookkeeping: sort the
            # 3T (vertex, triangle) incidence records, scan for run starts
            construct.sort(tris.ravel(), n=3 * T)
            construct.scan(np.ones(3 * T, dtype=np.int64), n=3 * T)
            chosen = construct.independent_set(
                _neighbors(tris),
                removable,
                max_degree=max_degree,
                seed=rng,
                n=len(verts),
            )
            if not chosen:
                raise RuntimeError("no removable vertex found")  # pragma: no cover
            tris, child_ptr, child_ids = _remove(all_pts, tris, chosen, construct)
            # compress the survivors and route the next level into place
            construct.scan(np.ones(T, dtype=np.int64), n=T)
            construct.route(np.arange(tris.shape[0]), tris[:, 0], n=tris.shape[0])
            levels.append(_Level(tris, child_ptr, child_ids))
        if round_no > 10 * (n + 4):
            raise RuntimeError("hierarchy construction did not converge")

    return KirkpatrickHierarchy(points=all_pts, levels=levels)


def kirkpatrick_structure(
    hier: KirkpatrickHierarchy, construct: Construction | None = None
) -> tuple[SearchStructure, float]:
    """The hierarchy as a hierarchical-DAG SearchStructure.

    DAG level 0 = the single coarsest triangle; level ``i+1`` = the next
    finer triangulation.  Node payload: ``[own 6 coords, child coords
    (MAX_CHILDREN * 6)]``; adjacency: child DAG-vertex ids.  A node's
    children fill its first slots; the rest (every slot of a leaf) keep
    adjacency ``-1`` and all-zero corners, which the successor relies on.
    Returns the structure and the measured level growth factor ``mu``.  The
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
        # payload rows as 1 + MAX_CHILDREN (own or child) triangles
        slots = payload.reshape(V, 1 + MAX_CHILDREN, 6)
        for d in range(L):
            tl = L - 1 - d  # triangulation level
            lv = levels[tl]
            T = lv.triangles.shape[0]
            base = int(starts[d])
            level[base : base + T] = d
            slots[base : base + T, 0] = pts[lv.triangles].reshape(T, 6)
            if d < L - 1:
                counts = np.diff(lv.child_ptr)
                if counts.max() > MAX_CHILDREN:
                    raise RuntimeError(
                        f"triangle has {counts.max()} children > {MAX_CHILDREN}"
                    )
                row = base + np.repeat(np.arange(T), counts)
                slot = np.arange(lv.child_ids.size) - np.repeat(
                    lv.child_ptr[:-1], counts
                )
                adjacency[row, slot] = int(starts[d + 1]) + lv.child_ids
                finer = levels[tl - 1].triangles[lv.child_ids]
                slots[row, 1 + slot] = pts[finer].reshape(-1, 6)
        # modelled mesh cost: sort nodes by DAG level, route each node's
        # record (adjacency + payload ride as O(1) words) to its slot
        construct.sort(level, n=V)
        construct.route(np.arange(V), level, n=V)

    h = L - 1

    structure = SearchStructure(
        adjacency=adjacency,
        payload=payload,
        level=level,
        successor=kirkpatrick_successor,
        directed=True,
    )
    mu = (sizes[-1] / max(sizes[0], 1)) ** (1.0 / max(h, 1)) if h >= 1 else 2.0
    return structure, float(max(mu, 1.05))


def kirkpatrick_successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
    """The point-in-child-triangle descent: each query moves to the first
    child triangle of its node that contains its point.

    A module-level function rather than a closure inside
    :func:`kirkpatrick_structure`, so a snapshot-restored structure
    (:mod:`repro.serve.snapshot`) is rewired from its flat arrays alone,
    without re-running construction.  A query whose point lies in no
    child stops where it is: outside the bounding triangle, not finite,
    or at a leaf.

    The test reads no level.  Absent child slots hold all-zero corners
    and adjacency ``-1`` (STOP), after the real ones; a leaf has only
    absent slots.  An absent slot's three orientations are ``qx * qy -
    qy * qx``, exactly 0 for a finite point, so it counts as containing:
    the first containing slot is then a real child that contains the
    point, or an absent slot that reads STOP.  A node whose
    ``MAX_CHILDREN`` slots are all real and miss the point, and a row
    whose orientations are NaN (a non-finite point, or one so large its
    products overflow), contain nothing: its first slot is read and
    ``np.where`` puts STOP there.

    A non-finite or overflowing point takes ``inf - inf`` on the way,
    which is expected and does not warn.  ``kirkpatrick_successor.unguarded``
    is the same step without its own ``np.errstate``, for a driver that
    turns numpy's invalid flag off once for the whole run (Algorithm 1's
    advancer, :mod:`repro.core.hierdag`).
    """
    with np.errstate(invalid="ignore"):
        return _level_step(vid, vpayload, vadjacency, vlevel, qkey, qstate)


def _level_step(vid, vpayload, vadjacency, vlevel, qkey, qstate):
    ok = _child_mask(qkey, vpayload[:, 6:])
    return (
        np.where(ok, vadjacency, STOP)[np.arange(ok.shape[0]), ok.argmax(axis=1)],
        qstate,
    )


kirkpatrick_successor.unguarded = _level_step


#: each corner's successor a -> b -> c -> a within its triangle, as a flat
#: index over the 3 * MAX_CHILDREN corners of a payload row
_NEXT_CORNER = (
    np.arange(3 * MAX_CHILDREN).reshape(MAX_CHILDREN, 3)[:, [1, 2, 0]].ravel()
)
#: for word ``2k`` (``x``) of corner ``k``, the ``y`` word of its
#: successor, and for word ``2k + 1`` (``y``) the successor's ``x`` word
_NEXT_SWAPPED = np.stack([2 * _NEXT_CORNER + 1, 2 * _NEXT_CORNER], axis=1).ravel()
#: the ``x``, ``y`` word of a query, spread over a row's corner words
_XY = np.tile([0, 1], 3 * MAX_CHILDREN)
#: boundary tolerance of the child test, ``point_in_triangle``'s default
_EPS = 1e-12


def _child_mask(q: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Which child triangles contain each point, boundary included.

    ``q`` is ``(m, 2)``; ``corners`` is ``(m, 6 * MAX_CHILDREN)``, row
    ``i``'s triangle ``j`` being the flattened corners
    ``corners[i, 6j : 6j + 6]``.  Returns the ``(m, MAX_CHILDREN)`` mask.

    All ``3 * MAX_CHILDREN`` orientations of a row come from one gather
    of its words ``d = corner - q``: ``prod = d * d[:, _NEXT_SWAPPED]``
    holds ``dx_a * dy_b`` and ``dy_a * dx_b`` side by side for each
    corner ``a`` and its successor ``b``, and the orientation of ``(q, a,
    b)`` is ``prod[:, 0::2] - prod[:, 1::2]``.  These are the same two
    rounded differences per corner, the same two rounded products and the
    one rounded subtraction that :func:`orient2d` performs, so for finite
    input whose products do not overflow the mask equals
    :func:`point_in_triangle` element-wise, boundary ties included.

    A triangle contains ``q`` when the least of its three orientations is
    ``>= -1e-12`` or the greatest is ``<= 1e-12`` (all three on one side,
    as ``point_in_triangle`` asks).  ``minimum`` and ``maximum`` carry a
    NaN through, and a NaN fails both compares, so a non-finite point
    lies in no triangle.  Its ``inf - inf`` raises numpy's invalid flag:
    the caller decides whether that warns.
    """
    d = corners - q.take(_XY, axis=1)
    prod = d * d.take(_NEXT_SWAPPED, axis=1)
    o = prod[:, 0::2] - prod[:, 1::2]
    # each triangle's three orientations, unrolled (a reduction over a
    # length-3 axis is slow)
    a, b, c = o[:, 0::3], o[:, 1::3], o[:, 2::3]
    return (np.minimum(np.minimum(a, b), c) >= -_EPS) | (
        np.maximum(np.maximum(a, b), c) <= _EPS
    )


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
        successor=kirkpatrick_successor,
        directed=True,
    )
    return structure, float(meta["mu"])
