"""Query services over snapshot-restored structures.

A service wraps one restored structure and answers batches through the
same construction-free entry points the applications use
(:func:`repro.apps.pointloc.locate_on_structure`,
:func:`repro.apps.linepoly.line_queries_on_structure`,
:func:`repro.apps.interval_search.count_on_structures`), so a batch
served from a snapshot is byte-identical to running the same queries
directly after a fresh build.

Each service canonicalizes queries to a fixed-width float64 row (the
form hashed by the result cache) and returns **per-query results as
numpy arrays/scalars**, so the batcher can resolve individual futures
and the cache can store individual answers.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.engine import MeshEngine
from repro.mesh.topology import MeshShape
from repro.serve.snapshot import Snapshot, SnapshotError, read_snapshot

__all__ = [
    "MultisearchService",
    "PointLocationService",
    "LinePolyService",
    "IntervalCountService",
    "restore_service",
]


class MultisearchService:
    """Base: a restored structure plus batch execution.

    Subclasses define ``kind``, ``query_width`` (row width of a
    canonicalized query), ``mesh_size(m)`` (processor count for an
    ``m``-query batch) and ``_run(queries, engine)`` returning
    ``(list_of_per_query_results, mesh_steps)``.
    """

    kind: str = ""
    query_width: int = 0

    def __init__(self, snapshot: Snapshot):
        if snapshot.kind != self.kind:
            raise SnapshotError(
                f"snapshot kind {snapshot.kind!r} cannot back a {self.kind!r} service"
            )
        self.snapshot_id = snapshot.snapshot_id

    def canonical_queries(self, queries) -> np.ndarray:
        """Validate and canonicalize a batch to ``(m, query_width)`` float64.

        The 1-D contract is pinned: a 1-D array is **one query row** of
        length ``query_width`` — except for single-column services
        (``query_width == 1``), where a length-``m`` 1-D array can only
        mean ``m`` scalar queries and is read as ``(m, 1)``.  The result
        is idempotent: feeding a returned batch (or one of its rows, for
        multi-column services) back through yields the same rows, which
        is what lets the batching front-end canonicalize exactly once.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim == 0:
            q = q.reshape(1, 1)
        elif q.ndim == 1:
            q = q.reshape(-1, 1) if self.query_width == 1 else q.reshape(1, -1)
        q = np.ascontiguousarray(q)
        if q.ndim != 2 or q.shape[1] != self.query_width:
            raise ValueError(
                f"{self.kind} queries must be (m, {self.query_width}); got {q.shape}"
            )
        return q

    def mesh_size(self, m: int) -> int:
        raise NotImplementedError

    def make_engine(self, m: int, **engine_kwargs) -> MeshEngine:
        """A fresh engine sized exactly as the direct application call."""
        return MeshEngine(MeshShape.for_size(self.mesh_size(m)).side, **engine_kwargs)

    def run_batch(self, queries, engine: MeshEngine | None = None):
        """Answer a batch; returns ``(results, mesh_steps)``.

        ``results[i]`` is query ``i``'s answer as an immutable-by-
        convention numpy scalar/array.  A fresh engine is created when
        none is passed, so independent batches never share host caches.

        When the engine carries a :class:`~repro.mesh.faults.FaultInjector`
        the canonical rows pass through its adversarial-input hook first:
        the serving boundary's fault surface is the query batch itself
        (plus whatever engine primitives the underlying multisearch
        exercises — the hierdag path has none, see ``repro.bench.chaos``).
        """
        q = self.canonical_queries(queries)
        if engine is None:
            engine = self.make_engine(q.shape[0])
        if engine.faults is not None:
            q = engine.faults.on_query_rows(q, f"serve:{self.kind}")
        return self._run(q, engine)

    def _run(self, queries: np.ndarray, engine: MeshEngine):
        raise NotImplementedError


class PointLocationService(MultisearchService):
    """Planar point location on a restored Kirkpatrick DAG (E5 path).

    Query row: ``[x, y]``.  Result: int64 base-triangulation triangle
    index (``-1`` = outside).
    """

    kind = "pointloc"
    query_width = 2

    def __init__(self, snapshot: Snapshot, c: int | None = 2):
        super().__init__(snapshot)
        from repro.geometry.kirkpatrick import kirkpatrick_from_snapshot

        self.structure, self.mu = kirkpatrick_from_snapshot(
            snapshot.arrays, snapshot.meta
        )
        self.c = c

    def mesh_size(self, m: int) -> int:
        return max(self.structure.size, m)

    def _run(self, queries, engine):
        from repro.apps.pointloc import locate_on_structure

        triangle, steps = locate_on_structure(
            self.structure, self.mu, queries, engine=engine, c=self.c
        )
        return [np.int64(t) for t in triangle], steps


class LinePolyService(MultisearchService):
    """Line-polyhedron queries on a restored tangent DAG (Theorem 8.1).

    Query row: ``[p0x, p0y, p0z, dx, dy, dz]``, finite, with a direction
    of finite nonzero length.  Result: an ``(11,)`` float64 row
    ``[intersects, tangent_left, tangent_right, plane_left(4),
    plane_right(4)]`` (planes NaN when the line intersects).
    """

    kind = "linepoly"
    query_width = 6

    def __init__(self, snapshot: Snapshot, c: int | None = 2, max_walk: int = 64):
        super().__init__(snapshot)
        from repro.geometry.dk3d import dk_tangent_from_snapshot

        (self.structure, self.original, self.points, self.adj, self.mu) = (
            dk_tangent_from_snapshot(snapshot.arrays, snapshot.meta)
        )
        self.c = c
        self.max_walk = max_walk

    def canonical_queries(self, queries) -> np.ndarray:
        """As the base, refusing rows that name no line.

        The tangent keys divide by the direction's length, so a zero
        direction (``dx = dy = dz = 0``), one whose length under- or
        overflows, or a non-finite value would turn into NaN keys and an
        arbitrary answer; such a row raises :class:`ValueError` instead.
        """
        q = super().canonical_queries(queries)
        with np.errstate(over="ignore", invalid="ignore"):
            length = np.linalg.norm(q[:, 3:6], axis=1)
        bad = ~(np.isfinite(q).all(axis=1) & (length > 0) & (length < np.inf))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"line query {i} must be finite [p0, d] with d of finite "
                f"nonzero length; got {q[i].tolist()}"
            )
        return q

    def mesh_size(self, m: int) -> int:
        return max(self.structure.size, 2 * m)

    def _run(self, queries, engine):
        from repro.apps.linepoly import line_queries_on_structure

        run = line_queries_on_structure(
            self.structure,
            self.original,
            self.adj,
            self.points,
            self.mu,
            queries[:, 0:3],
            queries[:, 3:6],
            engine=engine,
            c=self.c,
            max_walk=self.max_walk,
        )
        m = queries.shape[0]
        results = []
        for i in range(m):
            row = np.empty(11, dtype=np.float64)
            row[0] = float(run.intersects[i])
            row[1] = float(run.tangent_left[i])
            row[2] = float(run.tangent_right[i])
            row[3:11] = run.planes[i].ravel()
            results.append(row)
        return results, run.mesh_steps


class IntervalCountService(MultisearchService):
    """Interval intersection counting on restored rank trees (Section 6).

    Query row: ``[a, b]`` with finite ``a <= b``.  Result: int64 count of
    stored intervals intersecting ``[a, b]``.
    """

    kind = "interval"
    query_width = 2

    def __init__(self, snapshot: Snapshot):
        super().__init__(snapshot)
        from repro.apps.interval_search import interval_count_from_snapshot

        (self.st_l, self.st_r, self.sp_l, self.sp_r) = interval_count_from_snapshot(
            snapshot.arrays, snapshot.meta
        )

    def canonical_queries(self, queries) -> np.ndarray:
        """As the base, refusing rows the count is not defined for.

        The count is two rank searches, ``#{l <= b} - #{r < a}``, which
        equals ``#{l <= b, r >= a}`` only for an interval: a row with
        ``a > b`` or a non-finite endpoint would get a wrong (even
        negative) count, so it raises :class:`ValueError` instead.
        """
        q = super().canonical_queries(queries)
        bad = ~(np.isfinite(q).all(axis=1) & (q[:, 0] <= q[:, 1]))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"interval query {i} must be finite [a, b] with a <= b; "
                f"got {q[i].tolist()}"
            )
        return q

    def mesh_size(self, m: int) -> int:
        return max(self.st_l.size, self.st_r.size, m)

    def _run(self, queries, engine):
        from repro.apps.interval_search import count_on_structures

        counts, steps = count_on_structures(
            self.st_l,
            self.st_r,
            self.sp_l,
            self.sp_r,
            queries[:, 0],
            queries[:, 1],
            engine=engine,
        )
        return [np.int64(cnt) for cnt in counts], steps


_SERVICES = {
    "pointloc": PointLocationService,
    "linepoly": LinePolyService,
    "interval": IntervalCountService,
}


def restore_service(source, **kwargs) -> MultisearchService:
    """Restore the right service for a snapshot (path or object).

    Dispatches on the snapshot's ``kind``; keyword arguments are passed
    to the service constructor (e.g. ``c=``, ``max_walk=``).
    """
    snapshot = source if isinstance(source, Snapshot) else read_snapshot(source)
    try:
        cls = _SERVICES[snapshot.kind]
    except KeyError:
        raise SnapshotError(f"no service for snapshot kind {snapshot.kind!r}") from None
    return cls(snapshot, **kwargs)
