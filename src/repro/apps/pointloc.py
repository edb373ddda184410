"""Multiple planar point location on the mesh (paper Section 5).

Builds the Kirkpatrick subdivision hierarchy over a point set's Delaunay
triangulation, loads the hierarchical DAG onto the mesh, and answers m
point-location queries as one Theorem 2 multisearch in ``O(sqrt(n))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baseline import synchronous_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import STOP, QuerySet
from repro.geometry.kirkpatrick import (
    KirkpatrickHierarchy,
    build_kirkpatrick,
    kirkpatrick_structure,
)
from repro.mesh.engine import MeshEngine
from repro.mesh.topology import MeshShape
from repro.mesh.trace import traced

__all__ = [
    "PointLocationRun",
    "final_vertices",
    "locate_points_mesh",
    "locate_faces_mesh",
    "locate_on_structure",
]


@dataclass
class PointLocationRun:
    """Outcome of a mesh point-location batch."""

    hierarchy: KirkpatrickHierarchy
    #: base-triangulation triangle index per query (-1 = outside all)
    triangle: np.ndarray
    mesh_steps: float
    dag_size: int
    method: str


def final_vertices(qs: QuerySet) -> np.ndarray:
    """Each query's final vertex: the last non-STOP entry of its trace row.

    The last vertex of each of ``qs.paths()`` (``-1`` for an empty path),
    read with numpy instead of building the paths.
    """
    trace = np.stack(qs.trace, axis=1)  # (m, T)
    live = trace != STOP
    last = trace.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    return np.where(live.any(axis=1), trace[np.arange(trace.shape[0]), last], -1)


def _final_triangles(finals: np.ndarray, structure) -> np.ndarray:
    """Map final DAG vertices back to base-triangulation triangle indices.

    The DAG lays its nodes out contiguously per level (coarsest first),
    so the bottom level's start offset — and hence the triangle index of
    a final vertex — is recoverable from ``structure.level`` alone.  This
    keeps the finalize step hierarchy-free, which is what lets a
    snapshot-restored structure serve queries without the hierarchy.
    """
    bottom, start_h = _bottom_level(structure)
    # finals are vertex ids or -1, which reads the last entry and is masked
    return np.where((finals >= 0) & bottom[finals], finals - start_h, -1)


def _bottom_level(structure) -> tuple[np.ndarray, int]:
    """Which vertices sit on the DAG's bottom level, and the first of them.

    Cached on the structure, guarded by the identity of its level array
    (as the Algorithm 1 plan is): every batch over a served structure
    reads the same answer.
    """
    level = structure.level
    cached = getattr(structure, "_repro_bottom", None)
    if cached is not None and cached[0] is level:
        return cached[1]
    level_arr = np.asarray(level)
    h = int(level_arr.max(initial=0))
    bottom = (level_arr == h, int(np.searchsorted(level_arr, h)))
    try:
        structure._repro_bottom = (level, bottom)
    except (AttributeError, TypeError):  # frozen/slotted structures: no cache
        pass
    return bottom


def locate_on_structure(
    structure,
    mu: float,
    queries: np.ndarray,
    engine: MeshEngine | None = None,
    method: str = "hierdag",
    c: int | None = 2,
) -> tuple[np.ndarray, float]:
    """Locate queries against an already-built Kirkpatrick DAG.

    The construction-free core of :func:`locate_points_mesh`, shared with
    the serving layer (:mod:`repro.serve`), which restores ``structure``
    and ``mu`` from a snapshot.  Returns ``(triangle, mesh_steps)``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if engine is None:
        engine = MeshEngine(
            MeshShape.for_size(max(structure.size, queries.shape[0])).side
        )
    if method not in ("hierdag", "baseline"):
        raise ValueError(f"unknown method {method!r}")
    # Algorithm 1 reports each query's final vertex itself; the baseline
    # leaves it in the visit log
    qs = QuerySet.start(queries, 0, record_trace=method == "baseline")
    t0 = engine.clock.time
    with traced(engine.clock, "pointloc:search"):
        if method == "hierdag":
            finals = hierdag_multisearch(engine, structure, qs, mu=mu, c=c).final
        else:
            synchronous_multisearch(engine, structure, qs)
    with traced(engine.clock, "pointloc:finalize"):
        if method == "baseline":
            finals = final_vertices(qs)
        triangle = _final_triangles(finals, structure)
    return triangle, engine.clock.time - t0


def locate_points_mesh(
    sites: np.ndarray,
    queries: np.ndarray,
    seed=0,
    engine: MeshEngine | None = None,
    method: str = "hierdag",
    c: int | None = 2,
) -> PointLocationRun:
    """Locate ``queries`` in the Delaunay subdivision of ``sites``.

    ``method`` is ``"hierdag"`` (Algorithm 1) or ``"baseline"``
    (synchronous level-by-level).  ``c = 2`` is the engineering value of
    the band constant (DESIGN.md) — pass ``None`` for the paper's.

    Traced phases: host spans ``pointloc:build`` / ``pointloc:structure``
    (construction, before the engine may exist), then engine spans
    ``pointloc:search`` and ``pointloc:finalize``.
    """
    with traced(None, "pointloc:build"):
        hier = build_kirkpatrick(np.asarray(sites, dtype=np.float64), seed=seed)
    with traced(None, "pointloc:structure"):
        structure, mu = kirkpatrick_structure(hier)
    triangle, mesh_steps = locate_on_structure(
        structure, mu, queries, engine=engine, method=method, c=c
    )
    return PointLocationRun(
        hierarchy=hier,
        triangle=triangle,
        mesh_steps=mesh_steps,
        dag_size=structure.size,
        method=method,
    )


@dataclass
class FaceLocationRun:
    """Outcome of a mesh face-location batch on a polygonal subdivision."""

    subdivision: "PlanarSubdivision"
    hierarchy: KirkpatrickHierarchy
    #: polygonal face index per query (-1 = outside the bounding triangle)
    face: np.ndarray
    triangle: np.ndarray
    mesh_steps: float


def locate_faces_mesh(
    sites: np.ndarray,
    queries: np.ndarray,
    merge_fraction: float = 0.6,
    seed=0,
    engine: MeshEngine | None = None,
    c: int | None = 2,
) -> FaceLocationRun:
    """Point location in a *polygonal* planar subdivision ([Kir83] proper).

    Builds the hierarchy over the base triangulation, derives a random
    polygonal subdivision over the same triangulation
    (:func:`repro.geometry.subdivision.merged_face_subdivision`), runs the
    Theorem 2 triangle multisearch, and maps each located triangle to its
    face — one local step per query, charged as such.
    """
    from repro.geometry.subdivision import PlanarSubdivision, merged_face_subdivision

    with traced(None, "pointloc:build"):
        hier = build_kirkpatrick(np.asarray(sites, dtype=np.float64), seed=seed)
    with traced(None, "pointloc:subdivision"):
        sub = merged_face_subdivision(hier, merge_fraction=merge_fraction, seed=seed)
    with traced(None, "pointloc:structure"):
        structure, mu = kirkpatrick_structure(hier)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if engine is None:
        engine = MeshEngine(
            MeshShape.for_size(max(structure.size, queries.shape[0])).side
        )
    qs = QuerySet.start(queries, 0)
    t0 = engine.clock.time
    with traced(engine.clock, "pointloc:search"):
        finals = hierdag_multisearch(engine, structure, qs, mu=mu, c=c).final
    with traced(engine.clock, "pointloc:finalize"):
        triangle = _final_triangles(finals, structure)
        # triangle -> face: O(1) local work per query (the map rides with
        # the triangle record on a real mesh)
        engine.root.charge_local(1, label="pointloc:face-map")
        face = np.where(
            triangle >= 0, sub.face_of_triangle[np.clip(triangle, 0, None)], -1
        )
    return FaceLocationRun(
        subdivision=sub,
        hierarchy=hier,
        face=face,
        triangle=triangle,
        mesh_steps=engine.clock.time - t0,
    )
