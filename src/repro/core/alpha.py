"""Multisearch for alpha-partitionable directed graphs (Section 4.5,
Algorithm 2, Theorem 5).

One *log-phase* advances every active query by Omega(log n) steps (or to
termination) in ``O(sqrt(n))`` time:

1. advance every query one step (full-mesh multistep) — on the first
   log-phase this is the initial visit of the first path vertex;
2. ``Constrained-Multisearch(G(S), alpha)``: queries run inside their
   current subgraph ``H_i`` or ``T_j`` until they would leave it;
3. advance every query one step — this carries the queries that stopped
   at the border of an ``H_i`` across the splitter edge into their ``T_j``
   (correctness case analysis in the proof of Lemma 4);
4. ``Constrained-Multisearch(G(S), alpha)`` again — the ``T_j`` leg.

The driver iterates log-phases until every query's search terminates,
``O(ceil(r / log n))`` iterations for longest path ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constrained import ConstrainedStats, constrained_multisearch
from repro.core.model import (
    GraphStore,
    MultisearchResult,
    QuerySet,
    SearchStructure,
    advance_queries,
)
from repro.core.splitters import Splitting
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import paranoid_boundary
from repro.mesh.trace import traced

__all__ = ["alpha_multisearch", "run_log_phase", "LogPhaseStats"]


@dataclass
class LogPhaseStats:
    """Diagnostics for one Algorithm 2/3 log-phase."""

    phase: int
    advanced_step1: int = 0
    advanced_step3: int = 0
    cm_stats: list[ConstrainedStats] = field(default_factory=list)


def run_log_phase(
    engine: MeshEngine,
    structure: SearchStructure,
    store: GraphStore,
    qs: QuerySet,
    splittings: tuple[Splitting, Splitting],
    phase: int,
) -> LogPhaseStats:
    """One log-phase (Algorithm 2 when both splittings coincide,
    Algorithm 3 when they are the S1/S2 pair)."""
    stats = LogPhaseStats(phase=phase)
    with traced(engine.clock, f"logphase{phase}"):
        if phase > 0:
            with traced(engine.clock, "logphase:step1"):
                adv = advance_queries(store, structure, qs, label="logphase:step1")
                stats.advanced_step1 = int(adv.sum())
        # step 2 (the constrained_multisearch call opens its own "cm" span)
        stats.cm_stats.append(
            constrained_multisearch(engine, structure, qs, splittings[0])
        )
        # step 3
        with traced(engine.clock, "logphase:step3"):
            adv = advance_queries(store, structure, qs, label="logphase:step3")
            stats.advanced_step3 = int(adv.sum())
        # step 4
        stats.cm_stats.append(
            constrained_multisearch(engine, structure, qs, splittings[1])
        )
        # Paranoid re-check at the phase boundary: the log-phase hands a
        # consistent (structure, qs) pair back to the driver.
        paranoid_boundary(engine, f"logphase{phase}:exit", structure=structure, qs=qs)
    return stats


def alpha_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    splitting: Splitting,
    max_phases: int | None = None,
) -> MultisearchResult:
    """Theorem 5: multisearch on an alpha-partitionable directed graph.

    ``splitting`` must be the (normalized) alpha-splitting ``G(S) =
    {H_1..H_k1, T_1..T_k2}`` — component labels only; the H/T distinction
    is not needed at run time because Constrained-Multisearch treats all
    subgraphs uniformly and step 3 carries queries across the splitter.

    Runs until every query terminates; charges ``O(sqrt(n))`` per
    log-phase.  Returns per-phase diagnostics in ``detail``.
    """
    with traced(engine.clock, "alpha"):
        paranoid_boundary(
            engine, "alpha:entry", structure=structure, qs=qs, splitting=splitting
        )
        store = GraphStore.load(engine.root, structure)
        start = engine.clock.time
        phases: list[LogPhaseStats] = []
        limit = max_phases if max_phases is not None else 4 * structure.n_vertices + 16
        phase = 0
        while qs.active.any():
            if phase >= limit:
                raise RuntimeError(f"multisearch did not terminate in {limit} log-phases")
            phases.append(
                run_log_phase(engine, structure, store, qs, (splitting, splitting), phase)
            )
            phase += 1
        paranoid_boundary(engine, "alpha:exit", structure=structure, qs=qs)
        total_advanced = int(qs.steps.sum())
    return MultisearchResult(
        queries=qs,
        mesh_steps=engine.clock.time - start,
        multisteps=int(qs.steps.max(initial=0)),
        detail={
            "log_phases": float(phase),
            "total_advanced": float(total_advanced),
            "min_steps_per_phase": float(
                min((p.cm_stats[0].rounds for p in phases), default=0)
            ),
        },
    )
