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
* Every charge comes from the plan's schedule (:meth:`HierDagPlan.schedule`),
  the ordered phases of Steps 1-4 for a query count; the run is one flat
  loop over it (charge, then advance), so the schedule is the cost model.
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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.bands import Band, BandDecomposition, compute_bands
from repro.core.model import STOP, MultisearchResult, QuerySet, SearchStructure
from repro.mesh.clock import CostModel
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import paranoid_boundary
from repro.mesh.records import packed_vertices
from repro.mesh.trace import traced
from repro.util.mathx import iterated_log

__all__ = ["BandPlan", "HierDagPlan", "Phase", "Schedule", "plan_hierdag",
           "hierdag_multisearch", "lemma1_band_steps"]


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


class Phase(NamedTuple):
    """One entry of Algorithm 1's charge schedule, in run order.

    A charge entry costs ``constant * side + extra`` steps at ``side`` on a
    ``grid x grid`` tiling (:meth:`MeshEngine.charge_phase`), moving
    ``volume`` records; its steps add to ``detail[key]``, then the queries
    at ``level`` (if any) advance one step.  ``side`` None is a local pass
    of ``extra`` steps with no ``detail`` key.  ``label`` None charges
    nothing: it is the paranoid boundary that closes span ``spans[-1]``.
    """

    #: the spans it runs in, outermost first; sibling spans differ in name
    spans: tuple[str, ...]
    label: str | None
    side: int | None
    constant: float
    volume: int
    extra: float
    grid: int
    level: int | None
    key: str | None


class Schedule(NamedTuple):
    """The phases of one run, its ``detail`` keys and its level steps."""

    phases: tuple[Phase, ...]
    #: ``detail``'s keys, in the order the result reports them
    keys: tuple[str, ...]
    multisteps: int


def _lemma1_phases(
    bp: BandPlan, m: int, cost: CostModel, outer: tuple[str, ...], prefix: str
) -> list[Phase]:
    """Lemma 1's phases for band ``bp`` and ``m`` queries.

    Phase 1 — one duplication of ``B_i^1`` (constant number of standard
    ops at submesh side) plus one RAR+local per ``B_i^1`` level at the
    inner side; Phase 2 — one RAR+local per ``B_i^2`` level at the submesh
    side.  Each volume is what one submesh moves: the ``q^2`` copies of
    ``B_i^1``, or its share of the (evenly spread) queries.
    """
    phases = []
    b1 = bp.band.b1_levels
    if b1 is not None:
        span, key = (*outer, "hierdag:phase1"), prefix + "phase1"
        phases.append(Phase(
            span, "hierdag:dup-b1", bp.sub_side, cost.sort + cost.route,
            bp.b1_vertices * bp.q * bp.q, 0.0, bp.g, None, prefix + "dup_b1",
        ))
        inner_queries = -(-m // (bp.g * bp.q) ** 2)
        phases += [
            Phase(span, "hierdag:phase1", bp.inner_side, cost.route,
                  inner_queries, cost.local, bp.g * bp.q, lvl, key)
            for lvl in range(b1[0], b1[1] + 1)
        ]
    span, key = (*outer, "hierdag:phase2"), prefix + "phase2"
    lo2, hi2 = bp.band.b2_levels
    sub_queries = -(-m // bp.g**2)
    phases += [
        Phase(span, "hierdag:phase2", bp.sub_side, cost.route, sub_queries,
              cost.local, bp.g, lvl, key)
        for lvl in range(lo2, hi2 + 1)
    ]
    return phases


#: Lemma 1's ``detail`` keys, in the order it reports them
_LEMMA1_KEYS = ("phase1", "phase2", "dup_b1")


@dataclass
class HierDagPlan:
    """Full Algorithm 1 plan: per-band grids plus the ``B*`` tail."""

    decomposition: BandDecomposition
    bands: list[BandPlan]
    mesh_side: int
    records_per_vertex: int
    _schedules: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def grids(self) -> list[int]:
        return [bp.g for bp in self.bands]

    def schedule(self, m: int, cost: CostModel) -> Schedule:
        """Every charge of Algorithm 1 over ``m`` queries, in run order.

        Step 1 is ``t`` local passes.  Step 2 per band ``i`` is a constant
        number of standard ops per ``B_{i+1}``-submesh (distribute ``B_i``,
        replicate the earlier bands into each ``B_i``-submesh), all
        submeshes in parallel: charged at the ``B_{i+1}``-submesh side on
        their grid (the whole mesh for the last band).  Step 3 per band
        duplicates ``B_i`` the same way, runs Lemma 1, then the paranoid
        boundary.  Step 4 is ``B*`` level by level on the whole mesh.
        Kept per ``(m, cost)``, up to 16 of them (about 5 KB each).
        """
        cache_key = (m, cost)
        cached = self._schedules.get(cache_key)
        if cached is not None:
            return cached
        bands = self.bands
        parents = [(bp.sub_side, bp.g) for bp in bands[1:]]
        parents.append((self.mesh_side, 1))
        setup = ("hierdag:setup",)
        phases = [Phase(setup, "hierdag:labels", None, 0.0, 0,
                        cost.local * max(1, len(bands)), 1, None, None)]
        phases += [
            Phase(setup, "hierdag:distribute", side, cost.sort + cost.route + cost.scan,
                  bp.band.n_vertices, 0.0, g, None, "setup")
            for bp, (side, g) in zip(bands, parents)
        ]
        keys = ["setup"]
        for j, (bp, (side, g)) in enumerate(zip(bands, parents)):
            span, prefix = (f"hierdag:band{j}",), f"band{j}:"
            phases.append(Phase(span, "hierdag:dup-band", side, cost.sort + cost.route,
                                bp.band.n_vertices, 0.0, g, None, prefix + "dup"))
            phases += _lemma1_phases(bp, m, cost, span, prefix)
            phases.append(Phase(span, None, None, 0.0, 0, 0.0, 1, None, None))
            keys += [prefix + k for k in ("dup", *_LEMMA1_KEYS)]
        deco = self.decomposition
        phases += [
            Phase(("hierdag:bstar",), "hierdag:bstar", self.mesh_side, cost.route,
                  m, cost.local, 1, lvl, "bstar")
            for lvl in range(deco.bstar_lo, deco.h + 1)
        ]
        keys.append("bstar")
        levels = sum(p.level is not None for p in phases)
        if len(self._schedules) >= 16:
            self._schedules.clear()
        sched = self._schedules[cache_key] = Schedule(tuple(phases), tuple(keys), levels)
        return sched


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
    adj, lvl = structure.adjacency, structure.level
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
    :func:`packed_vertices` block — one row gather per advance.

    While every query sits on one level of a unit-level structure (a
    point-location batch until its first STOP) and no visit log is kept, that
    level is one integer, ``_shared``, and the queries live in an *owned*
    int64 block ``[current, steps, key-bits, state-bits]`` (floats bit-cast):
    an advance is the row gather (``take``, which a small batch pays less for
    than a fancy index), the successor call on the block's current, key and
    state views (built once per batch) and the writes, and its steps are one
    scalar.  The first STOP writes the block back into the :class:`QuerySet`
    (:meth:`flush`, required after the last advance) and returns to per-row
    levels on ``qs`` itself, which logs a visit after every level that has an
    active query when ``record_trace`` is on.

    Every advance also records the vertex each advanced query left, so
    :meth:`final` knows where a search stopped without a visit log:
    callers that only need the final vertex run untraced.
    """

    def __init__(self, structure: SearchStructure, qs: QuerySet) -> None:
        self.structure = structure
        self.qs = qs
        self.vertices = packed_vertices(structure)
        m = qs.m
        levels = np.full(m, -1, dtype=np.int64)
        at = qs.current >= 0  # active and placed (STOP is the only negative)
        levels[at] = structure.level[qs.current[at]]
        self.levels = levels
        #: the vertex each query last advanced from (STOP before its first)
        self.prev = np.full(m, STOP, dtype=np.int64)
        self._unit = _unit_level_steps(structure)
        # ``_run`` turns numpy's invalid flag off once: skip a guarded step's own
        self._successor = getattr(structure.successor, "unguarded", structure.successor)
        #: the level every query sits on, or None: then ``levels`` is live
        self._shared = None
        self.qblk = None
        lo = levels[levels.argmin()] if m else -1
        if self._unit and not qs.record_trace and lo >= 0 and lo == levels[levels.argmax()]:
            self._shared = int(lo)
            kw = 1 if qs.key.ndim == 1 else qs.key.shape[1]
            key = np.ascontiguousarray(qs.key).reshape(m, kw).view(np.int64)
            state = np.ascontiguousarray(qs.state).reshape(m, -1).view(np.int64)
            self.qblk = np.concatenate(
                [qs.current[:, None], qs.steps[:, None], key, state], axis=1
            )
            self._cur = self.qblk[:, 0]
            kcols = 2 if qs.key.ndim == 1 else slice(2, 2 + kw)
            self._key = self.qblk[:, kcols].view(np.float64)
            self._state = self.qblk[:, 2 + kw :].view(np.float64)
            #: whole-block advances, not yet in the block's steps column
            self._steps = 0
            self._block, self._fields = self.vertices.block, self.vertices.fields

    def flush(self) -> None:
        """Write the owned query block (if any) back into the :class:`QuerySet`."""
        if self.qblk is None:
            return
        qs = self.qs
        qs.current[:] = self._cur
        qs.steps[:] = self.qblk[:, 1] + self._steps
        qs.state[...] = self._state.reshape(qs.state.shape)
        self.qblk = None

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
        if self._shared is None:
            return self._advance_rows(level)
        if level != self._shared:
            return 0
        cur, st = self._cur, self._state
        payload, adjacency, vlevel = self._fields(self._block.take(cur, axis=0))
        nxt, new_state = self._successor(cur, payload, adjacency, vlevel, self._key, st)
        self.prev[:] = cur  # before cur, a view of column 0, is overwritten
        cur[:] = nxt
        self._steps += 1
        if new_state is not st:
            st[...] = np.asarray(new_state, dtype=np.float64).reshape(st.shape)
        if nxt[nxt.argmin()] >= 0:
            self._shared = level + 1  # nobody stopped: still one level
        else:
            self.flush()
            self._shared = None
            self.levels = self._next_levels(nxt, vlevel)
        return nxt.shape[0]

    def _advance_rows(self, level: int) -> int:
        qs = self.qs
        sel = np.flatnonzero(self.levels == level)
        if sel.size == 0:
            if qs.record_trace and qs.active.any():  # a live level logs a visit
                qs.log_visit()
            return 0
        cs = qs.current[sel]
        payload, adjacency, vlevel = self.vertices.gather(cs)
        st = qs.state[sel]
        nxt, new_state = self._successor(
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


def _run(
    engine: MeshEngine,
    phases: tuple[Phase, ...] | list[Phase],
    advancer: _Advancer,
    detail: dict[str, float],
    structure: SearchStructure,
) -> None:
    """Charge each phase in order, then advance its level.  Spans open and
    close as the phases' span paths change; an exception closes every span
    still open, as ``with`` blocks would.  numpy's invalid flag is off for
    the run: a non-finite key's NaN arithmetic stops its row, silently."""
    clock = engine.clock
    charge_phase = engine.charge_phase
    advance = advancer.advance
    path: tuple[str, ...] = ()
    opened: list = []
    with np.errstate(invalid="ignore"):
        try:
            for spans, label, side, constant, volume, extra, grid, level, key in phases:
                if spans is not path:  # close what ``spans`` leaves, open the rest
                    k = 0
                    for a, b in zip(path, spans):
                        if a != b:
                            break
                        k += 1
                    while len(opened) > k:
                        opened.pop().__exit__(None, None, None)
                    for name in spans[k:]:
                        opened.append(traced(clock, name))
                        opened[-1].__enter__()
                    path = spans
                if label is None:  # paranoid: re-check the structure at a band's end
                    paranoid_boundary(engine, spans[-1], structure=structure)
                elif side is None:
                    clock.charge(extra, label)
                else:
                    detail[key] += charge_phase(side, constant, label, volume, extra, grid)
                    if level is not None:
                        advance(level)
        finally:
            while opened:
                opened.pop().__exit__(None, None, None)


def lemma1_band_steps(
    engine: MeshEngine, structure: SearchStructure, qs: QuerySet, plan: BandPlan
) -> dict[str, float]:
    """Lemma 1: solve the multisearch for one band on its submeshes (the
    band's phases of the schedule).  Returns the per-phase charges."""
    advancer = _Advancer(structure, qs)
    detail = dict.fromkeys(_LEMMA1_KEYS, 0.0)
    phases = _lemma1_phases(plan, qs.m, engine.clock.cost, (), "")
    _run(engine, phases, advancer, detail, structure)
    advancer.flush()
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
    bottom level is passed) and charges the engine clock with the plan's
    schedule.  Returns a :class:`MultisearchResult` whose ``detail``
    records per-stage charges and whose ``final`` holds each query's final
    vertex.
    """
    clock = engine.clock
    if plan is None:
        plan = _cached_plan(structure, engine.shape.rows, mu, c)
    start_time = clock.time

    with traced(clock, "hierdag"):
        # paranoid: the Lemma 1 proofs assume well-formed inputs; check them
        # once at entry (adversarial pointers/keys/levels are caught here,
        # before any primitive can crash on them)
        paranoid_boundary(engine, "hierdag:entry", structure=structure, qs=qs)
        # built after the entry check: it reads every query's level, which
        # an out-of-range query pointer would turn into a bare IndexError
        advancer = _Advancer(structure, qs)
        schedule = plan.schedule(qs.m, clock.cost)
        detail = dict.fromkeys(schedule.keys, 0.0)
        _run(engine, schedule.phases, advancer, detail, structure)
        advancer.flush()
        paranoid_boundary(engine, "hierdag:exit", structure=structure, qs=qs)
    return MultisearchResult(
        queries=qs,
        mesh_steps=clock.time - start_time,
        multisteps=schedule.multisteps,
        detail=detail,
        final=advancer.final(),
    )
