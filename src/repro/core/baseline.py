"""The synchronous multisearch baseline ([DR90]-style).

The hypercube algorithm of Dehne & Rau-Chaplin moves *all* queries
synchronously one step at a time; each advancement is a full-network
concurrent read and costs time proportional to the network diameter.  On
the mesh that is ``O(sqrt(n))`` per multistep and ``O(r * sqrt(n))``
total — exactly the strategy the paper's introduction rules out as
non-viable, and the natural comparator for experiments E1/E3/E4.

It is also the correct *reference mesh algorithm*: always ``O(1)`` memory,
no assumptions on ``G`` beyond constant degree.
"""

from __future__ import annotations

from repro.core.model import (
    GraphStore,
    MultisearchResult,
    QuerySet,
    SearchStructure,
    advance_queries,
)
from repro.mesh.engine import MeshEngine

__all__ = ["synchronous_multisearch"]


def synchronous_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    max_steps: int | None = None,
) -> MultisearchResult:
    """Advance all queries in lockstep, one full-mesh RAR per multistep."""
    store = GraphStore.load(engine.root, structure)
    start = engine.clock.time
    limit = max_steps if max_steps is not None else 4 * structure.n_vertices + 16
    multisteps = 0
    while qs.active.any():
        if multisteps >= limit:
            raise RuntimeError(f"baseline did not terminate in {limit} multisteps")
        advance_queries(store, structure, qs, label="baseline:multistep")
        multisteps += 1
    return MultisearchResult(
        queries=qs,
        mesh_steps=engine.clock.time - start,
        multisteps=multisteps,
        detail={"multisteps": float(multisteps)},
    )
