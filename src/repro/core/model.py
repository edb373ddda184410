"""The multisearch problem model (paper Section 2 and Appendix).

A *search structure* is a constant-degree graph ``G`` whose vertices carry
O(1) words of payload.  A *query* carries a constant-size key plus a small
mutable state, and a *successor function* ``f`` that, given one vertex's
record and one query's record, produces the next vertex to visit (or
``STOP``) in O(1) time — the on-line search-path model of the paper.

On the mesh, ``G``'s vertices live one per processor together with their
adjacency (Appendix "initial configuration"), and a query *visits* a
vertex when some processor holds copies of both records.  The mesh
algorithms move copies of vertex records to queries (never the reverse
semantics), which is what :class:`GraphStore` + :func:`advance_queries`
implement on top of the engine's RAR primitive.

:func:`run_reference` is the sequential oracle: it executes all search
processes directly (no mesh, no costs) and records the full search paths,
so every mesh algorithm can be verified query-by-query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.mesh.engine import Region
from repro.mesh.records import packed_vertices

__all__ = [
    "STOP",
    "SuccessorFn",
    "SearchStructure",
    "QuerySet",
    "GraphStore",
    "MultisearchResult",
    "IllegalMoveError",
    "check_moves",
    "run_reference",
]

#: sentinel next-vertex id meaning "search path terminated"
STOP = -1


class SuccessorFn(Protocol):
    """Vectorized on-line successor function ``f``.

    All arguments are batched per-query: element *i* describes query *i*
    visiting its current vertex.  Must return ``(next_vertex_ids,
    new_state)`` where ``next_vertex_ids[i] == STOP`` terminates query *i*.
    Each element's computation may use only that element's inputs (O(1)
    information), which is what makes the function implementable in one
    local mesh step.
    """

    def __call__(
        self,
        vid: np.ndarray,
        vpayload: np.ndarray,
        vadjacency: np.ndarray,
        vlevel: np.ndarray,
        qkey: np.ndarray,
        qstate: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass
class SearchStructure:
    """A search structure ``G`` plus its successor function.

    Attributes
    ----------
    adjacency:
        ``(V, d)`` int64 with ``-1`` padding.  For directed graphs these
        are the out-neighbours; for undirected graphs the full neighbour
        lists (both cases constant-degree).
    payload:
        ``(V, p)`` float64 per-vertex search information.
    level:
        ``(V,)`` int64; level index for hierarchical DAGs, depth for
        trees, zero otherwise.  The paper assumes this is precomputed.
    successor:
        The on-line successor function ``f``.
    labels:
        Optional per-vertex label arrays (splitter component indices etc.)
        stored alongside the vertex, as Section 4 assumes ("every
        processor stores ... an index indicating to which graph in G(S)
        the vertex belongs").
    """

    adjacency: np.ndarray
    payload: np.ndarray
    level: np.ndarray
    successor: SuccessorFn
    directed: bool = True
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        V = self.adjacency.shape[0]
        if self.payload.shape[0] != V or self.level.shape[0] != V:
            raise ValueError("adjacency/payload/level vertex counts differ")
        for name, arr in self.labels.items():
            if arr.shape[0] != V:
                raise ValueError(f"label {name!r} has wrong length")

    @property
    def n_vertices(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def n_edges(self) -> int:
        live = int((self.adjacency >= 0).sum())
        return live if self.directed else live // 2

    @property
    def size(self) -> int:
        """Paper's ``n = |V| + |E|``.

        Memoized against the adjacency array's identity: counting live
        edges is an O(V * d) reduction, and ``size`` is read at the top of
        every multisearch call.  Replacing ``adjacency`` invalidates the
        cache; mutating it in place (nothing in the codebase does) would
        require clearing ``_repro_size``.
        """
        cached = self.__dict__.get("_repro_size")
        if cached is not None and cached[0] is self.adjacency:
            return cached[1]
        n = self.n_vertices + self.n_edges
        self.__dict__["_repro_size"] = (self.adjacency, n)
        return n

    @property
    def max_degree(self) -> int:
        return int(self.adjacency.shape[1])


@dataclass
class QuerySet:
    """A batch of search queries with their live search state.

    ``current[i]`` is the vertex query *i* is visiting (``STOP`` once the
    search terminated or before it started); ``steps[i]`` counts advances;
    ``trace`` (optional) records every visited vertex for verification.
    """

    key: np.ndarray  # (m,) or (m, q) float64
    state: np.ndarray  # (m, s) float64
    current: np.ndarray  # (m,) int64
    steps: np.ndarray  # (m,) int64
    record_trace: bool = False
    trace: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def start(
        cls,
        key: np.ndarray,
        start_vertex: np.ndarray | int,
        state_width: int = 1,
        record_trace: bool = False,
    ) -> "QuerySet":
        key = np.asarray(key, dtype=np.float64)
        m = key.shape[0]
        current = np.broadcast_to(np.asarray(start_vertex, dtype=np.int64), (m,)).copy()
        qs = cls(
            key=key,
            state=np.zeros((m, state_width)),
            current=current,
            steps=np.zeros(m, dtype=np.int64),
            record_trace=record_trace,
        )
        if record_trace:
            qs.trace.append(current.copy())
        return qs

    @property
    def m(self) -> int:
        return int(self.current.shape[0])

    @property
    def active(self) -> np.ndarray:
        return self.current != STOP

    def log_visit(self) -> None:
        if self.record_trace:
            self.trace.append(self.current.copy())

    def paths(self) -> list[list[int]]:
        """Per-query visited-vertex sequences (requires ``record_trace``).

        Consecutive duplicate entries are collapsed: mesh schedules log a
        visit snapshot after every round, including rounds in which a
        query did not move, whereas the reference logs one entry per
        advance.  A successor that legally moves along an edge never
        returns the current vertex, so collapsing is lossless.
        """
        if not self.record_trace:
            raise RuntimeError("trace recording was not enabled")
        stacked = np.stack(self.trace, axis=1)  # (m, T)
        out: list[list[int]] = []
        for row in stacked:
            path: list[int] = []
            for v in row:
                v = int(v)
                if v != STOP and (not path or path[-1] != v):
                    path.append(v)
            out.append(path)
        return out


@dataclass
class MultisearchResult:
    """Outcome of a mesh multisearch run.

    ``final`` is each query's final vertex (the last vertex its search
    visited, ``-1`` if none) when the algorithm tracks it — Algorithm 1
    does, with or without ``record_trace`` — else ``None``.
    """

    queries: QuerySet
    mesh_steps: float
    multisteps: int
    detail: dict[str, float] = field(default_factory=dict)
    final: np.ndarray | None = None


class GraphStore:
    """The vertex records of ``G`` resident in a mesh region.

    The paper's initial configuration: ``G`` is resident before any
    search starts and only queries move, so slot *v* of the region holds
    vertex *v*'s record.  The store reads the structure's
    :func:`~repro.mesh.records.packed_vertices` block (packed once and
    cached on the structure, read-only), so loading copies nothing and
    no search can write through to the structure.
    """

    def __init__(self, region: Region, structure: SearchStructure, per_proc: int = 4) -> None:
        self.region = region
        self.vertices = packed_vertices(structure)
        self.n_vertices = structure.n_vertices
        region.check_capacity(self.n_vertices, per_proc=per_proc, what="vertex records")

    @classmethod
    def load(
        cls, region: Region, structure: SearchStructure, per_proc: int = 4
    ) -> "GraphStore":
        """Place ``structure`` into ``region``."""
        return cls(region, structure, per_proc=per_proc)

    def gather(self, vids: np.ndarray, label: str = "visit"):
        """RAR the packed records of ``vids`` to the requesting queries.

        Returns ``(found_mask, rows)``: ``found_mask`` marks the ids of
        resident vertices (``0 <= vid < V``), and ``rows`` holds their
        records as :attr:`vertices` rows (split them with
        ``vertices.fields``); rows with ``found_mask == False`` are
        undefined.  One RAR charge on the region (covers the
        sort-and-merge concurrent-read simulation).
        """
        vids = np.asarray(vids, dtype=np.int64)
        # negative ids wrap to huge unsigned ones: one compare covers both ends
        found = vids.view(np.uint64) < self.n_vertices
        (rows,) = self.region.rar(
            np.where(found, vids, STOP), self.vertices.block, label=label
        )
        return found, rows


def advance_queries(
    store: GraphStore,
    structure: SearchStructure,
    qs: QuerySet,
    mask: np.ndarray | None = None,
    label: str = "multistep",
) -> np.ndarray:
    """One multistep for the masked queries against ``store``'s region.

    Gathers each masked query's current vertex record (one RAR), applies
    the successor function (one local step), and moves the query pointers.
    Queries whose current vertex is not resident in the store are left
    untouched; returns the mask of queries that actually advanced.
    """
    if mask is None:
        mask = qs.active
    mask = mask & qs.active
    found, rows = store.gather(qs.current, label=label)
    do = mask & found
    store.region.charge_local(1, label=label + ":f")
    if do.any():
        nxt, new_state = structure.successor(
            qs.current[do], *store.vertices.fields(rows[do]), qs.key[do], qs.state[do]
        )
        qs.current[do] = nxt
        qs.state[do] = new_state
        qs.steps[do] += 1
    qs.log_visit()
    return do


class IllegalMoveError(AssertionError):
    """A successor function proposed a move that is not along an edge of G."""


def check_moves(structure: SearchStructure, cur: np.ndarray, nxt: np.ndarray) -> None:
    """Assert every proposed move follows an edge (Section 2's contract).

    For directed graphs the move must be along an out-edge of the current
    vertex; for undirected graphs the adjacency rows already list all
    neighbours.  ``STOP`` is always legal.
    """
    live = nxt != STOP
    if not live.any():
        return
    allowed = (structure.adjacency[cur[live]] == nxt[live][:, None]).any(axis=1)
    if not allowed.all():
        bad = int(np.flatnonzero(live)[~allowed][0])
        raise IllegalMoveError(
            f"successor moved query from vertex {int(cur[bad])} to "
            f"{int(nxt[bad])}, which is not a neighbour"
        )


def run_reference(
    structure: SearchStructure,
    key: np.ndarray,
    start_vertex: np.ndarray | int,
    state_width: int = 1,
    max_steps: int | None = None,
    validate_moves: bool = False,
) -> QuerySet:
    """Sequential oracle: run every search process to completion.

    No mesh, no costs — used to verify mesh algorithms.  ``max_steps``
    guards against non-terminating successor functions (default
    ``4 * V + 16``).  ``validate_moves`` additionally asserts that every
    step follows an edge of ``G`` (catches successor functions that
    violate the Section 2 contract; the mesh algorithms silently assume
    it, so enable this when developing a new structure).
    """
    qs = QuerySet.start(key, start_vertex, state_width, record_trace=True)
    limit = max_steps if max_steps is not None else 4 * structure.n_vertices + 16
    for _ in range(limit):
        act = qs.active
        if not act.any():
            break
        cur = qs.current[act]
        nxt, new_state = structure.successor(
            cur,
            structure.payload[cur],
            structure.adjacency[cur],
            structure.level[cur],
            qs.key[act],
            qs.state[act],
        )
        if validate_moves:
            check_moves(structure, cur, np.asarray(nxt))
        qs.current[act] = nxt
        qs.state[act] = new_state
        qs.steps[act] += 1
        qs.log_visit()
    else:
        if qs.active.any():
            raise RuntimeError(
                f"{int(qs.active.sum())} queries still active after {limit} steps"
            )
    return qs
