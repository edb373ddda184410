"""Multisearch for alpha-beta-partitionable undirected graphs
(Section 4.6, Algorithm 3, Theorem 7).

Identical shape to Algorithm 2, but the two Constrained-Multisearch calls
of a log-phase use *different* splittings: step 2 runs within the
components of the alpha-splitter ``S_1``, step 4 within those of the
beta-splitter ``S_2``.  Correctness (Lemma 6) rests on the distance
``Omega(log n)`` between the borders of ``S_1`` and ``S_2``: a query that
stops at the border of ``S_1`` is, after the single step-3 advance, at
least ``Omega(log n)`` steps away from the border of ``S_2``, so the
step-4 call can complete the log-phase without leaving its ``S_2``
component.
"""

from __future__ import annotations

from repro.core.alpha import LogPhaseStats, run_log_phase
from repro.core.model import GraphStore, MultisearchResult, QuerySet, SearchStructure
from repro.core.splitters import Splitting
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import paranoid_boundary
from repro.mesh.trace import traced

__all__ = ["alphabeta_multisearch"]


def alphabeta_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    splitting1: Splitting,
    splitting2: Splitting,
    max_phases: int | None = None,
) -> MultisearchResult:
    """Theorem 7: multisearch on an alpha-beta-partitionable undirected graph.

    ``splitting1``/``splitting2`` are the (normalized) splittings induced
    by the alpha- and beta-splitters; their borders must be Omega(log n)
    apart for the Theorem 7 bound (correctness holds regardless — a query
    that crosses both borders within one log-phase simply advances fewer
    steps that phase and the driver runs more phases).
    """
    with traced(engine.clock, "alphabeta"):
        paranoid_boundary(
            engine, "alphabeta:entry", structure=structure, qs=qs,
            splitting=splitting1,
        )
        paranoid_boundary(engine, "alphabeta:entry2", splitting=splitting2)
        store = GraphStore.load(engine.root, structure)
        start = engine.clock.time
        phases: list[LogPhaseStats] = []
        limit = max_phases if max_phases is not None else 4 * structure.n_vertices + 16
        phase = 0
        while qs.active.any():
            if phase >= limit:
                raise RuntimeError(f"multisearch did not terminate in {limit} log-phases")
            phases.append(
                run_log_phase(
                    engine, structure, store, qs, (splitting1, splitting2), phase
                )
            )
            phase += 1
        paranoid_boundary(engine, "alphabeta:exit", structure=structure, qs=qs)
    return MultisearchResult(
        queries=qs,
        mesh_steps=engine.clock.time - start,
        multisteps=int(qs.steps.max(initial=0)),
        detail={
            "log_phases": float(phase),
            "total_advanced": float(qs.steps.sum()),
        },
    )
