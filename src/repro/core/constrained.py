"""Constrained-Multisearch (paper Section 4.4, Lemma 3).

Given a splitting ``Psi = {G_1, ..., G_k}`` with ``|G_i| = O(n^delta)`` and
``k = O(n^(1-delta))``, advance every query currently visiting a vertex of
some ``G_i`` by up to ``log2 n`` steps, stopping early when the next vertex
leaves its subgraph.  Implementation follows the paper's seven steps:

1. mark queries whose current vertex lies in some ``G_i``;
2. compute the congestion ``Gamma_i = ceil(#queries in G_i / n^delta)``;
3. exit if no query is marked;
4. create ``Gamma_i`` copies of each ``G_i``, one per *virtual
   delta-submesh* (the mesh is cut into a grid of physical submeshes of
   ``~n^delta`` processors, each simulating O(1) virtual ones);
5. route every marked query to a copy of its subgraph, at most
   ``O(n^delta)`` queries per copy;
6. ``log2 n`` rounds: each copy advances its queries one step, unmarking
   those whose next vertex leaves the subgraph (they stay put);
7. discard the copies (and route the queries back for the next stage).

Cost: steps 1–5 and 7 are a constant number of full-mesh operations
(``O(sqrt(n))``); each round of step 6 runs on all delta-submeshes in
parallel (``O(sqrt(n^delta))`` per round, ``O(sqrt(n^delta) * log n) =
o(sqrt(n))`` total).  The engine charges exactly this: the global ops are
executed as root-region primitives; the per-round submesh work is charged
on the most-loaded physical submesh (the parallel max) while the data
movement of all copies is executed as one vectorized batch — each copy
only ever touches vertex records it owns, so the batch is observationally
identical to the per-submesh RARs it accounts for.  Each phase charge
carries the records it moves as its volume (the copied subgraph records,
the marked queries, one block's share of the live queries per round),
which a sharded engine prices as off-chip serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.model import STOP, QuerySet, SearchStructure
from repro.core.splitters import Splitting
from repro.mesh.engine import MeshEngine, Region
from repro.mesh.faults import paranoid_boundary
from repro.mesh.records import packed_vertices
from repro.mesh.topology import RegionSpec, block_spec
from repro.mesh.trace import traced

__all__ = ["constrained_multisearch", "ConstrainedStats"]


@dataclass
class ConstrainedStats:
    """Diagnostics from one Constrained-Multisearch call."""

    marked: int = 0
    copies_created: int = 0
    rounds: int = 0
    max_queries_per_copy: int = 0
    max_copies_per_submesh: int = 0
    advanced_total: int = 0
    steps_histogram: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Plan:
    """The per-(mesh, n, delta) constants of one Constrained-Multisearch."""

    #: ``ceil(log2 n)``, the paper's ``x``
    rounds: int
    #: queries per subgraph copy, ``ceil(n^delta)``
    cap: int
    #: the mesh is cut into ``g x g`` blocks (physical submeshes)
    g: int
    #: physical submeshes, ``g * g``
    n_phys: int
    #: block 0 of the grid: its side prices a round, and copies are dealt
    #: to the blocks round-robin, so it is also the most loaded block
    block0: RegionSpec


@lru_cache(maxsize=256)
def _plan(root: RegionSpec, n: int, delta: float) -> _Plan:
    """Grid granularity ``g x g`` of blocks of ``~n^delta`` processors and
    the other constants; a pure function of its arguments, so worked out
    once per (mesh, structure size, delta) rather than on every call.
    ``block_spec`` guarantees the same cuts as ``Region.partition``."""
    sub_records = max(1.0, float(n) ** delta)
    sub_side = max(1, math.ceil(math.sqrt(sub_records)))
    g = max(1, root.rows // sub_side)
    return _Plan(
        rounds=max(1, math.ceil(math.log2(max(n, 2)))),
        cap=max(1, int(math.ceil(float(n) ** delta))),
        g=g,
        n_phys=g * g,
        block0=block_spec(root, g, g, 0, 0),
    )


def constrained_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    splitting: Splitting,
    rounds: int | None = None,
    stats: ConstrainedStats | None = None,
) -> ConstrainedStats:
    """Run Procedure Constrained-Multisearch(Psi, delta) on the engine.

    Mutates ``qs`` in place (query pointers, states, step counts) and
    charges the engine clock.  ``rounds`` defaults to ``ceil(log2 n)``
    where ``n = structure.size`` — the paper's ``x = log2 n``.
    """
    with traced(engine.clock, "cm"):
        paranoid_boundary(
            engine, "cm:entry", structure=structure, qs=qs, splitting=splitting
        )
        result = _constrained_multisearch(
            engine, structure, qs, splitting, rounds, stats
        )
        paranoid_boundary(engine, "cm:exit", structure=structure, qs=qs)
        return result


def _constrained_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    splitting: Splitting,
    rounds: int | None,
    stats: ConstrainedStats | None,
) -> ConstrainedStats:
    root = engine.root
    cost = engine.clock.cost
    plan = _plan(root.spec, structure.size, splitting.delta)
    cap = plan.cap
    if stats is None:
        stats = ConstrainedStats()
    if rounds is None:
        rounds = plan.rounds
    stats.rounds = rounds

    # Step 1: mark queries whose current vertex is in some G_i.  The comp
    # label rides with the vertex record (Section 4 storage convention), so
    # this is one RAR of the label by current-vertex id.
    with traced(engine.clock, "cm:mark"):
        comp_table = splitting.comp
        cur = qs.current
        (comp_of_cur,) = root.rar(
            np.where(cur >= 0, cur, -1), comp_table, fill=-1, label="cm:mark"
        )
        marked = (cur != STOP) & (comp_of_cur >= 0)
        stats.marked = int(marked.sum())

        # Step 2: Gamma_i for every G_i (one combining RAW = sort + scan).
        k = splitting.n_components
        counts = root.raw(
            np.where(marked, comp_of_cur, -1),
            np.ones(qs.m, dtype=np.int64),
            size=max(k, 1),
            combine="add",
            label="cm:gamma",
        )
        gamma = -(-counts // cap)  # ceil(count / cap)

    # Step 3: nothing to do?
    total_copies = int(gamma.sum())
    if total_copies == 0:
        return stats

    # Step 4: create the copies.  Virtual submesh c holds copy
    # (component_of_copy[c], replica index); copies are assigned to
    # physical submeshes round-robin, so block 0 holds the most of them.
    # Creating and distributing all copies is a constant number of global
    # sort/route operations (total copied data = sum Gamma_i * |G_i| = O(n)).
    with traced(engine.clock, "cm:distribute"):
        stats.copies_created = total_copies
        mc = stats.max_copies_per_submesh = -(-total_copies // plan.n_phys)
        # the copy broadcast: executed as one root sort + route (records of
        # every G_i annotated with replica ids), charged as such.
        root.charge_local(1, label="cm:copy-plan")
        copied = int(gamma @ splitting.sizes)
        engine.charge_phase(root.side, cost.sort, "cm:copy-sort", volume=copied)
        engine.charge_phase(root.side, cost.route, "cm:copy-route", volume=copied)
        # capacity honesty: the most loaded physical submesh (block 0, which
        # holds copies 0, n_phys, 2 n_phys, ...) must hold its share of
        # copied records within O(1) words per processor.
        component_of_copy = np.repeat(np.arange(k), gamma)
        heavy_records = int(splitting.sizes[component_of_copy[:: plan.n_phys]].sum())
        Region(engine, plan.block0).check_capacity(
            heavy_records, per_proc=engine.capacity, what="copied subgraph records"
        )

        # Step 5: route marked queries to copies of their subgraphs.
        # rank within component -> replica = rank // cap  (so <= cap per copy).
        sort_key = np.where(marked, comp_of_cur, k)  # unmarked sort to the back
        order = root.argsort(sort_key, label="cm:query-sort")
        rank_sorted = root.segmented_scan(
            np.ones(qs.m, dtype=np.int64),
            sort_key[order],
            inclusive=False,
            label="cm:rank-scan",
        )
        ranked = np.empty(qs.m, dtype=np.int64)
        ranked[order] = rank_sorted
        engine.charge_phase(
            root.side, cost.route, "cm:query-route", volume=stats.marked
        )
        li = np.flatnonzero(marked)
        comp_li = comp_of_cur[li]
        first_copy = np.cumsum(gamma) - gamma  # component -> its first copy id
        copy_li = first_copy[comp_li] + ranked[li] // cap
        stats.max_queries_per_copy = int(np.bincount(copy_li).max())
        if stats.max_queries_per_copy > cap:
            raise AssertionError("copy overloaded: Lemma 3 packing violated")

    # Step 6: log2 n rounds inside the delta-submeshes (parallel max).
    # Data movement is executed as one vectorized batch per round; the
    # cost is that of the most-loaded physical submesh: its virtual copies
    # run sequentially, each round costing one RAR + one local step on a
    # submesh of side block0.side.
    sub_side = plan.block0.side
    round_constant = cost.route * mc
    round_extra = cost.local * mc
    with traced(engine.clock, "cm:rounds"):
        # The live set shrinks monotonically, so the loop owns compact
        # per-live arrays (current/key/state/step-count) and touches the
        # full-width query set only when a query drops out (or, with
        # record_trace, to keep qs.current live for each round's visit
        # log).  Per-round work is one packed-row fancy-index plus
        # compressions of the shrinking live arrays.
        vertices = packed_vertices(structure)
        cur_li = qs.current[li]
        key_li = qs.key[li]
        state_li = qs.state[li]
        steps_li = np.zeros(li.size, dtype=np.int64)
        #: step counts of the queries that have left the loop
        finished: list[np.ndarray] = []
        for _ in range(rounds):
            if not li.size:
                break
            # volume: one block's share of the live queries
            engine.charge_phase(
                sub_side, round_constant, "cm:round",
                volume=-(-li.size // plan.n_phys), extra=round_extra,
                grid=plan.g,
            )
            nxt, new_state = structure.successor(
                cur_li, *vertices.gather(cur_li), key_li, state_li
            )
            # next vertex stays in the same subgraph copy?
            # np.maximum == np.clip(nxt, 0, None) without the iinfo lookup
            stays = (nxt != STOP) & (comp_table[np.maximum(nxt, 0)] == comp_li)
            # == stays.all(), without ndarray.all's Python-level wrapper
            if np.count_nonzero(stays) == stays.size:
                cur_li = nxt
                state_li = new_state
                steps_li += 1
            else:
                # queries that would leave stay at their last vertex and
                # drop out: flush their pre-round position/state and steps
                out = ~stays
                drop = li[out]
                stepped = steps_li[out]
                qs.current[drop] = cur_li[out]
                qs.state[drop] = state_li[out]
                qs.steps[drop] += stepped
                finished.append(stepped)
                li = li[stays]
                comp_li = comp_li[stays]
                key_li = key_li[stays]
                cur_li = nxt[stays]
                state_li = np.ascontiguousarray(new_state[stays])
                steps_li = steps_li[stays] + 1
            if qs.record_trace:
                qs.current[li] = cur_li
                qs.log_visit()
        if li.size:  # still-live queries flush once at round exhaustion
            qs.current[li] = cur_li
            qs.state[li] = state_li
            qs.steps[li] += steps_li
            finished.append(steps_li)

    # Step 7: discard copies; route the queries back to their home slots.
    with traced(engine.clock, "cm:return"):
        engine.charge_phase(
            root.side, cost.route, "cm:return-route", volume=stats.marked
        )
        # histogram of small non-negative ints: bincount + nonzero yields
        # the {value: count} dict in ascending order, in O(n)
        hist = np.bincount(np.concatenate(finished))
        stats.steps_histogram = {int(v): int(hist[v]) for v in np.flatnonzero(hist)}
        # every step a query took inside the procedure stayed in its copy
        stats.advanced_total = sum(v * c for v, c in stats.steps_histogram.items())
    return stats
