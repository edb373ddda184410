"""Multisearch for hierarchical DAGs (paper Section 3, Algorithm 1, Theorem 2).

Strategy: solve the multisearch level-band by level-band — ``B_0``, then
``B_1``, ..., then the O(1)-level tail ``B*``.  For each band ``B_i`` the
mesh is partitioned into ``g_i x g_i`` ``B_i``-submeshes (``g_i =
log^(i) h`` ideally), every submesh holds its own copy of ``B_i`` (made
affordable by the Step 1/2 labelling and distribution scheme), and every
submesh advances *its resident queries* through the band with Lemma 1's
two-phase solver:

* Phase 1: the ``B_i``-submesh is cut into ``Delta h_i x Delta h_i``
  ``B_i^1``-submeshes, each holding a copy of the (much smaller) prefix
  ``B_i^1``; queries advance level by level inside those tiny submeshes —
  ``Delta h_i`` levels at ``O(sqrt(|B_i|) / Delta h_i)`` each =
  ``O(sqrt(|B_i|))``.
* Phase 2: the last ``O(log Delta h_i)`` levels (``B_i^2``) advance level
  by level on the whole ``B_i``-submesh.

Implementation notes (cost honesty):

* All ``B_i``-submeshes execute the identical schedule simultaneously, so
  the parallel-max cost equals one submesh's cost; the engine clock is
  charged once per primitive at the submesh's side, and the data movement
  of all submeshes is executed as one vectorized batch per level (each
  query reads only vertices of the current band, which its submesh's copy
  holds, so the batch is observationally identical to the per-submesh
  RARs it accounts for).
* Granularities adapt to capacity: ``g_i`` (and the inner grid ``q_i``)
  shrink below their ideal values when a band's record count would not
  fit in ``O(1)`` words per processor of the ideal submesh — this only
  happens at small ``n``, where the paper's asymptotic constants have not
  kicked in, and degrades cost, never correctness.
* Every phase charge carries the records one submesh moves as its
  volume (a band or band-prefix copy, or the submesh's share of the
  queries), taken from plan sizes and the query count.  The flat engine
  only counts it; a sharded engine prices its off-chip serialization.
* Queries are advanced strictly level-synchronously; a query whose search
  path starts below ``L_0`` simply joins when its band is processed, and
  a query whose successor returns STOP drops out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.bands import Band, BandDecomposition, compute_bands
from repro.core.model import STOP, MultisearchResult, QuerySet, SearchStructure
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import paranoid_boundary
from repro.mesh.records import packed_vertices
from repro.mesh.trace import traced
from repro.util.mathx import iterated_log

__all__ = ["BandPlan", "HierDagPlan", "plan_hierdag", "hierdag_multisearch", "lemma1_band_steps"]


@dataclass(frozen=True)
class BandPlan:
    """Execution plan for one band ``B_i``."""

    band: Band
    #: ``B_i``-partition granularity (mesh cut into g x g submeshes)
    g: int
    #: inner ``B_i^1`` grid granularity within a ``B_i``-submesh
    q: int
    #: side of one ``B_i``-submesh
    sub_side: int
    #: side of one ``B_i^1``-submesh
    inner_side: int
    #: vertices of ``B_i^1`` (0 when it is empty)
    b1_vertices: int = 0


@dataclass
class HierDagPlan:
    """Full Algorithm 1 plan: per-band grids plus the ``B*`` tail."""

    decomposition: BandDecomposition
    bands: list[BandPlan]
    mesh_side: int
    records_per_vertex: int

    @property
    def grids(self) -> list[int]:
        return [bp.g for bp in self.bands]

    @cached_property
    def schedule(self) -> list[tuple[BandPlan, int, int, str, tuple[str, ...]]]:
        """Step 3's per-band constants, worked out once per plan.

        Per band: its plan; the side and grid of the ``B_{i+1}``-submeshes
        it is distributed and duplicated in (the whole mesh for the last
        band); its span name; and its ``detail`` keys, the band's copy
        charge then :func:`lemma1_band_steps`'s three, in that order.
        """
        parents = [(bp.sub_side, bp.g) for bp in self.bands[1:]]
        parents.append((self.mesh_side, 1))
        return [
            (bp, side, g, f"hierdag:band{j}",
             tuple(f"band{j}:{k}" for k in ("dup", "phase1", "phase2", "dup_b1")))
            for j, (bp, (side, g)) in enumerate(zip(self.bands, parents))
        ]


def _records(level_sizes: np.ndarray, lo: int, hi: int, rec_per_vertex: int) -> int:
    return int(level_sizes[lo : hi + 1].sum()) * rec_per_vertex


def plan_hierdag(
    structure: SearchStructure,
    mesh_side: int,
    mu: float,
    c: int | None = None,
    per_proc: int = 8,
) -> HierDagPlan:
    """Choose band grids for Algorithm 1 on a ``mesh_side^2`` mesh.

    ``per_proc`` is the O(1) records-per-processor budget used when
    shrinking grids below the ideal ``g_i = log^(i) h``.
    """
    level_sizes = np.bincount(structure.level, minlength=int(structure.level.max()) + 1)
    deco = compute_bands(level_sizes, mu, c)
    rec_per_vertex = 1 + structure.max_degree  # vertex + adjacency words
    plans: list[BandPlan] = []
    prev_g = mesh_side  # g_i must not exceed the previous (finer) grid
    for band in deco.bands:
        ideal = max(1, int(math.floor(iterated_log(deco.h, band.index, mu))))
        g = min(ideal, prev_g)
        records = _records(level_sizes, band.lo_level, band.hi_level, rec_per_vertex)
        while g > 1 and (mesh_side // g) ** 2 * per_proc < records:
            g -= 1
        sub_side = max(1, mesh_side // g)
        # inner grid for Phase 1
        q = 1
        inner_side = sub_side
        b1_vertices = 0
        b1 = band.b1_levels
        if b1 is not None:
            ideal_q = band.n_levels
            q = max(1, min(ideal_q, sub_side))
            b1_vertices = int(level_sizes[b1[0] : b1[1] + 1].sum())
            rec1 = b1_vertices * rec_per_vertex
            while q > 1 and (sub_side // q) ** 2 * per_proc < rec1:
                q -= 1
            inner_side = max(1, sub_side // q)
        plans.append(BandPlan(band, g, q, sub_side, inner_side, b1_vertices))
        prev_g = g
    return HierDagPlan(deco, plans, mesh_side, rec_per_vertex)


def _cached_plan(
    structure: SearchStructure, mesh_side: int, mu: float, c: int | None
) -> HierDagPlan:
    """Memoized :func:`plan_hierdag` (the plan is a pure function of the
    structure's level histogram and the parameters).

    Cached on the structure object, guarded by the identity of its level
    array; replacing ``structure.level`` invalidates the entry, so
    repeated multisearches over one structure stop re-deriving the same
    band grids.
    """
    key = (mesh_side, mu, c)
    cached = getattr(structure, "_repro_plan", None)
    if cached is not None and cached[0] == key and cached[1] is structure.level:
        return cached[2]
    plan = plan_hierdag(structure, mesh_side, mu, c)
    try:
        structure._repro_plan = (key, structure.level, plan)
    except (AttributeError, TypeError):  # frozen/slotted structures: no cache
        pass
    return plan


def _unit_level_steps(structure: SearchStructure) -> bool:
    """True when every edge drops exactly one level.

    Cached on the structure, guarded by the identity of its adjacency and
    level arrays: replacing either re-checks.  When it holds, an advancing
    query's new level is ``old + 1`` (or ``-1`` on STOP), so the advancer
    can skip the random ``level[nxt]`` gather.
    """
    adj = structure.adjacency
    lvl = structure.level
    cached = getattr(structure, "_repro_unit_levels", None)
    if cached is not None and cached[0] is adj and cached[1] is lvl:
        return cached[2]
    valid = adj >= 0
    ok = bool(
        np.array_equal(
            lvl[adj[valid]], np.broadcast_to(lvl[:, None] + 1, adj.shape)[valid]
        )
    )
    try:
        structure._repro_unit_levels = (adj, lvl, ok)
    except (AttributeError, TypeError):  # frozen/slotted structures: no cache
        pass
    return ok


class _Advancer:
    """Advances one multisearch's queries level by level.

    Instead of re-deriving "which queries sit at this level" from scratch
    every level (a clip + gather + three comparisons over all ``m``
    queries), it carries each query's current level in an array that the
    advance itself keeps up to date, and gathers the selected queries'
    vertex records straight out of the structure's
    :func:`packed_vertices` block — one row fancy-index per advance.

    The query side is packed the same way: an *owned* int64 block
    ``[current, steps, key-bits, state-bits]`` (floats bit-cast) feeds
    each advance with a single row gather and is flushed back into the
    :class:`QuerySet` by :meth:`flush` — required after the last advance.
    Successor inputs are column *views* of the gathered rows (the
    Section 2 contract already makes them read-only to successors).
    While every query sits on one level of a unit-level structure (a
    point-location batch until its first STOP), that level is one integer:
    an advance there takes the whole block without selecting rows, and
    its steps are one scalar that :meth:`flush` adds to every query.
    With ``record_trace`` on, ``qs.current`` must stay live at every
    visit, so the advancer operates on ``qs`` directly and logs a visit
    after every level that has an active query.

    In both modes every advance also records the vertex each advanced
    query left, so :meth:`final` knows where a search stopped without a
    visit log: callers that only need the final vertex run untraced.
    """

    def __init__(self, structure: SearchStructure, qs: QuerySet) -> None:
        self.structure = structure
        self.qs = qs
        self.vertices = packed_vertices(structure)
        levels = np.full(qs.m, -1, dtype=np.int64)
        at = qs.current >= 0  # active and placed (STOP is the only negative)
        levels[at] = structure.level[qs.current[at]]
        self.levels = levels
        #: the vertex each query last advanced from (STOP before its first)
        self.prev = np.full(qs.m, STOP, dtype=np.int64)
        self._unit = _unit_level_steps(structure)
        self._owned = not qs.record_trace
        #: the level every query sits on, or None: then ``levels`` is live
        self._shared = None
        if self._owned:
            m = qs.m
            self._key_1d = qs.key.ndim == 1
            kw = 1 if self._key_1d else qs.key.shape[1]
            sw = qs.state.shape[1]
            key = np.ascontiguousarray(qs.key).reshape(m, kw).view(np.int64)
            state = np.ascontiguousarray(qs.state).reshape(m, sw).view(np.int64)
            self._kc, self._kw = 2, kw
            self._sc, self._sw = 2 + kw, sw
            self.qblk = np.concatenate(
                [qs.current[:, None], qs.steps[:, None], key, state], axis=1
            )
            #: whole-block advances not yet in the block's steps column
            self._steps = 0
            if self._unit and m and levels[0] >= 0 and (levels == levels[0]).all():
                self._shared = int(levels[0])

    def flush(self) -> None:
        """Write the owned query block back into the :class:`QuerySet`."""
        if not self._owned:
            return
        qs = self.qs
        qs.current[:] = self.qblk[:, 0]
        qs.steps[:] = self.qblk[:, 1] + self._steps
        qs.state[...] = (
            self.qblk[:, self._sc : self._sc + self._sw]
            .view(np.float64)
            .reshape(qs.state.shape)
        )

    def final(self) -> np.ndarray:
        """Each query's final vertex: the last vertex its search visited,
        ``-1`` if none — the last non-STOP entry of its visit log, which
        need not exist.  Valid after :meth:`flush`."""
        cur = self.qs.current
        return np.where(cur != STOP, cur, self.prev)

    def _next_levels(self, nxt: np.ndarray, vlevel: np.ndarray) -> np.ndarray:
        if self._unit:  # new level is old + 1 (or -1 on STOP): no gather
            return np.where(nxt >= 0, vlevel + 1, np.int64(-1))
        # negative ids (STOP == -1) wrap to a garbage level, then fixed
        lv = self.structure.level[nxt]
        lv[nxt < 0] = -1
        return lv

    def advance(self, level: int) -> int:
        """Advance every active query currently at ``level`` by one step."""
        if not self._owned:
            return self._advance_traced(level)
        shared = self._shared
        if shared is not None:
            if level != shared:
                return 0
            full = True
        else:
            sel = np.flatnonzero(self.levels == level)
            if sel.size == 0:
                return 0  # log_visit is a no-op without tracing
            full = sel.size == self.levels.shape[0]
        qrow = self.qblk if full else self.qblk[sel]
        cs = qrow[:, 0]
        payload, adjacency, vlevel = self.vertices.gather(cs)
        if self._key_1d:
            key = qrow[:, self._kc].view(np.float64)
        else:
            key = qrow[:, self._kc : self._kc + self._kw].view(np.float64)
        st = qrow[:, self._sc : self._sc + self._sw].view(np.float64)
        nxt, new_state = self.structure.successor(
            cs, payload, adjacency, vlevel, key, st
        )
        if full:  # every query: write whole columns
            self.prev[:] = cs  # before cs, a view of column 0, is overwritten
            self.qblk[:, 0] = nxt
            self._steps += 1
            if new_state is not st:
                self.qblk[:, self._sc : self._sc + self._sw] = (
                    np.ascontiguousarray(new_state, dtype=np.float64)
                    .reshape(nxt.shape[0], -1)
                    .view(np.int64)
                )
            if shared is not None and np.minimum.reduce(nxt) >= 0:
                self._shared = shared + 1  # nobody stopped: still one level
            else:
                self._shared = None
                self.levels = self._next_levels(nxt, vlevel)
            return nxt.shape[0]
        self.prev[sel] = cs
        self.qblk[sel, 0] = nxt
        self.qblk[sel, 1] = qrow[:, 1] + 1
        if new_state is not st:
            self.qblk[sel, self._sc : self._sc + self._sw] = (
                np.ascontiguousarray(new_state, dtype=np.float64)
                .reshape(nxt.shape[0], -1)
                .view(np.int64)
            )
        self.levels[sel] = self._next_levels(nxt, vlevel)
        return int(sel.size)

    def _advance_traced(self, level: int) -> int:
        qs = self.qs
        sel = np.flatnonzero(self.levels == level)
        if sel.size == 0:
            if qs.active.any():  # a level with live queries logs a visit
                qs.log_visit()
            return 0
        cs = qs.current[sel]
        payload, adjacency, vlevel = self.vertices.gather(cs)
        st = qs.state[sel]
        nxt, new_state = self.structure.successor(
            cs, payload, adjacency, vlevel, qs.key[sel], st
        )
        self.prev[sel] = cs
        qs.current[sel] = nxt
        if new_state is not st:  # writing the gathered state back is a no-op
            qs.state[sel] = new_state
        qs.steps[sel] += 1
        self.levels[sel] = self._next_levels(nxt, vlevel)
        qs.log_visit()
        return int(sel.size)


def lemma1_band_steps(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    plan: BandPlan,
    advancer: _Advancer | None = None,
) -> dict[str, float]:
    """Lemma 1: solve the multisearch for one band on its submeshes.

    Charges: Phase 1 — one duplication of ``B_i^1`` (constant number of
    standard ops at submesh side) plus one RAR+local per ``B_i^1`` level
    at the inner side; Phase 2 — one RAR+local per ``B_i^2`` level at the
    submesh side.  Each charge's volume is what one submesh moves: the
    ``q^2`` copies of ``B_i^1`` for the duplication, and the submesh's
    share of the (evenly spread) queries for a level step.  Returns the
    per-phase charges for diagnostics.
    """
    clock = engine.clock
    cost = clock.cost
    local_advancer = None
    if advancer is None:
        advancer = local_advancer = _Advancer(structure, qs)
    step = advancer.advance
    detail = {"phase1": 0.0, "phase2": 0.0, "dup_b1": 0.0}
    band = plan.band
    b1 = band.b1_levels
    if b1 is not None:
        with traced(clock, "hierdag:phase1"):
            detail["dup_b1"] += engine.charge_phase(
                plan.sub_side, cost.sort + cost.route, "hierdag:dup-b1",
                volume=plan.b1_vertices * plan.q * plan.q, grid=plan.g,
            )
            inner_queries = -(-qs.m // (plan.g * plan.q) ** 2)
            for lvl in range(b1[0], b1[1] + 1):
                detail["phase1"] += engine.charge_phase(
                    plan.inner_side, cost.route, "hierdag:phase1",
                    volume=inner_queries, extra=cost.local,
                    grid=plan.g * plan.q,
                )
                step(lvl)
    lo2, hi2 = band.b2_levels
    sub_queries = -(-qs.m // plan.g**2)
    with traced(clock, "hierdag:phase2"):
        for lvl in range(lo2, hi2 + 1):
            detail["phase2"] += engine.charge_phase(
                plan.sub_side, cost.route, "hierdag:phase2",
                volume=sub_queries, extra=cost.local, grid=plan.g,
            )
            step(lvl)
    if local_advancer is not None:  # caller-owned advancers flush later
        local_advancer.flush()
    return detail


def hierdag_multisearch(
    engine: MeshEngine,
    structure: SearchStructure,
    qs: QuerySet,
    mu: float,
    c: int | None = None,
    plan: HierDagPlan | None = None,
) -> MultisearchResult:
    """Algorithm 1: multisearch on a hierarchical DAG in ``O(sqrt(n))``.

    Mutates ``qs`` (all queries run until their successor STOPs or the
    bottom level is passed) and charges the engine clock.  Returns a
    :class:`MultisearchResult` whose ``detail`` records per-stage charges
    and whose ``final`` holds each query's final vertex.
    """
    clock = engine.clock
    cost = clock.cost
    if plan is None:
        plan = _cached_plan(structure, engine.shape.rows, mu, c)
    deco = plan.decomposition
    start_time = clock.time
    detail: dict[str, float] = {}

    with traced(clock, "hierdag"):
        # paranoid: the Lemma 1 proofs assume well-formed inputs; check them
        # once at entry (adversarial pointers/keys/levels are caught here,
        # before any primitive can crash on them)
        paranoid_boundary(engine, "hierdag:entry", structure=structure, qs=qs)
        # built after the entry check: it reads every query's level, which
        # an out-of-range query pointer would turn into a bare IndexError
        advancer = _Advancer(structure, qs)
        # Steps 1-2: labelling and band distribution.  Step 1 is t local
        # passes; Step 2 per band i is a constant number of standard ops per
        # B_{i+1}-submesh (distribute B_i among label-i processors, replicate
        # the union of earlier bands into each B_i-submesh), all submeshes in
        # parallel -> charged at the B_{i+1}-submesh side, on their grid (the
        # whole mesh for the last band).
        schedule = plan.schedule
        with traced(clock, "hierdag:setup"):
            clock.charge(cost.local * max(1, len(plan.bands)), "hierdag:labels")
            setup = 0.0
            for bp, parent_side, parent_g, _, _ in schedule:
                setup += engine.charge_phase(
                    parent_side, cost.sort + cost.route + cost.scan,
                    "hierdag:distribute", volume=bp.band.n_vertices,
                    grid=parent_g,
                )
            detail["setup"] = setup

        # Step 3: per band, duplicate B_i into each B_i-submesh, then Lemma 1.
        multisteps = 0
        for bp, parent_side, parent_g, name, keys in schedule:
            with traced(clock, name):
                dup = engine.charge_phase(
                    parent_side, cost.sort + cost.route, "hierdag:dup-band",
                    volume=bp.band.n_vertices, grid=parent_g,
                )
                d = lemma1_band_steps(engine, structure, qs, bp, advancer=advancer)
                detail.update(zip(keys, (dup, *d.values())))
                multisteps += bp.band.n_levels
                # paranoid: re-check the structure at each band boundary
                # (the queries' live state is flushed only at the end)
                paranoid_boundary(engine, name, structure=structure)

        # Step 4: B* level by level on the whole mesh (O(1) levels).
        bstar = 0.0
        with traced(clock, "hierdag:bstar"):
            for lvl in range(deco.bstar_lo, deco.h + 1):
                bstar += engine.charge_phase(
                    plan.mesh_side, cost.route, "hierdag:bstar",
                    volume=qs.m, extra=cost.local,
                )
                advancer.advance(lvl)
                multisteps += 1
        detail["bstar"] = bstar

        advancer.flush()
        paranoid_boundary(engine, "hierdag:exit", structure=structure, qs=qs)
    return MultisearchResult(
        queries=qs,
        mesh_steps=clock.time - start_time,
        multisteps=multisteps,
        detail=detail,
        final=advancer.final(),
    )
