"""Multiple interval intersection search on the mesh (paper Section 6).

Given ``n`` stored intervals and ``m`` query intervals, answer for each
query ``[a, b]``:

* **count** — ``#{i : [l_i, r_i] intersects [a, b]}``, by the rank
  identity ``#{l_i <= b} - #{r_i < a}``: two root-to-leaf rank descents
  on balanced search trees over the left and right endpoints, run as
  alpha-partitionable multisearches (Algorithm 2 / Theorem 5);
* **report** — the intersecting intervals themselves, as the disjoint
  union ``{l_i in [a, b]}  +  {l_i < a <= r_i}``: a range walk on the
  left-endpoint tree (alpha-beta multisearch, Algorithm 3 / Theorem 7)
  plus a stabbing query at ``a`` on the flattened interval tree
  (:mod:`repro.intervals.structure`), also an alpha-beta multisearch.

Every mesh result is verified against
:func:`repro.intervals.interval_tree.brute_force_intersections` in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.alpha import alpha_multisearch
from repro.core.alphabeta import alphabeta_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import Splitting, normalize_splitting, splitting_from_labels
from repro.core.model import SearchStructure
from repro.graphs.adapters import (
    ktree_range_structure,
    ktree_rank_structure,
    ktree_rank_successor,
)
from repro.graphs.ktree import BalancedKTree, tree_from_keys
from repro.intervals.interval_tree import IntervalTree
from repro.intervals.structure import IntervalStructure, build_interval_structure
from repro.mesh.engine import MeshEngine
from repro.mesh.topology import MeshShape
from repro.mesh.trace import traced

__all__ = [
    "IntervalSearchSetup",
    "setup_interval_search",
    "count_intersections_mesh",
    "count_on_structures",
    "report_intersections_mesh",
    "interval_count_snapshot_arrays",
    "interval_count_from_snapshot",
]


def _tree_splitting(tree: BalancedKTree, delta: float = 0.5) -> Splitting:
    lab = tree.alpha_splitter()
    sp = splitting_from_labels(lab.comp, tree.children, delta)
    return normalize_splitting(sp, tree.size)


def _tree_splittings_ab(tree: BalancedKTree) -> tuple[Splitting, Splitting]:
    if tree.height >= 6:
        s1, s2, _ = tree.alpha_beta_splitters()
    else:
        s1 = tree.alpha_splitter()
        s2 = tree.splitter_at_depths([max(1, tree.height - 1)])
    sp1 = splitting_from_labels(s1.comp, tree.children, 0.5)
    sp2 = splitting_from_labels(s2.comp, tree.children, 1.0 / 3.0)
    return sp1, sp2


@dataclass
class IntervalSearchSetup:
    """Prebuilt structures shared by counting and reporting runs.

    Counting needs only the two endpoint trees; the interval tree and its
    flattened structure, which only reporting uses, are built on first
    access.
    """

    lefts: np.ndarray
    rights: np.ndarray
    tree_lefts: BalancedKTree
    tree_rights: BalancedKTree
    #: permutation: left-sorted leaf rank -> interval id
    left_order: np.ndarray
    k: int

    @cached_property
    def itree(self) -> IntervalTree:
        return IntervalTree(self.lefts, self.rights)

    @cached_property
    def istruct(self) -> IntervalStructure:
        return build_interval_structure(self.itree)


def setup_interval_search(lefts: np.ndarray, rights: np.ndarray, k: int = 2) -> IntervalSearchSetup:
    """Build the endpoint trees for a dataset (the interval tree for
    reporting follows on first use).

    Traced as one host span ``intervals:setup``.
    """
    lefts = np.asarray(lefts, dtype=np.float64)
    rights = np.asarray(rights, dtype=np.float64)
    with traced(None, "intervals:setup"):
        return _setup_interval_search(lefts, rights, k)


def _setup_interval_search(lefts, rights, k: int) -> IntervalSearchSetup:
    left_order = np.argsort(lefts, kind="stable")
    tree_lefts = tree_from_keys(k, lefts[left_order])
    tree_rights = tree_from_keys(k, np.sort(rights))
    return IntervalSearchSetup(
        lefts=lefts,
        rights=rights,
        tree_lefts=tree_lefts,
        tree_rights=tree_rights,
        left_order=left_order,
        k=k,
    )


def count_intersections_mesh(
    setup: IntervalSearchSetup,
    a: np.ndarray,
    b: np.ndarray,
    engine: MeshEngine | None = None,
) -> tuple[np.ndarray, float]:
    """Counts per query; returns ``(counts, mesh_steps)``.

    Traced phases: engine span ``intervals:count`` wrapping the two rank
    descents ``intervals:count:rank-le-b`` and ``intervals:count:rank-lt-a``.
    """
    st_l = ktree_rank_structure(setup.tree_lefts, strict=False)
    st_r = ktree_rank_structure(setup.tree_rights, strict=True)
    return count_on_structures(
        st_l,
        st_r,
        _tree_splitting(setup.tree_lefts),
        _tree_splitting(setup.tree_rights),
        a,
        b,
        engine=engine,
    )


def count_on_structures(
    st_l: SearchStructure,
    st_r: SearchStructure,
    sp_l: Splitting,
    sp_r: Splitting,
    a: np.ndarray,
    b: np.ndarray,
    engine: MeshEngine | None = None,
) -> tuple[np.ndarray, float]:
    """Counting on prebuilt rank structures and their alpha splittings.

    The construction-free core of :func:`count_intersections_mesh`,
    shared with the serving layer, which restores both structures and
    splittings from a snapshot.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.shape[0]
    size = max(st_l.size, st_r.size, m)
    if engine is None:
        engine = MeshEngine(MeshShape.for_size(size).side)
    t0 = engine.clock.time

    with traced(engine.clock, "intervals:count"):
        with traced(engine.clock, "intervals:count:rank-le-b"):
            qs1 = QuerySet.start(b, 0, state_width=1)
            alpha_multisearch(engine, st_l, qs1, sp_l)
            rank_le_b = qs1.state[:, 0]

        with traced(engine.clock, "intervals:count:rank-lt-a"):
            qs2 = QuerySet.start(a, 0, state_width=1)
            alpha_multisearch(engine, st_r, qs2, sp_r)
            rank_lt_a = qs2.state[:, 0]

    counts = (rank_le_b - rank_lt_a).astype(np.int64)
    return counts, engine.clock.time - t0


def interval_count_snapshot_arrays(setup: IntervalSearchSetup):
    """Flat arrays + scalar meta capturing the counting path of ``setup``.

    Both rank structures (left endpoints, non-strict; right endpoints,
    strict) and their alpha splittings.  Successor functions are not
    stored — they are rebuilt by :func:`ktree_rank_successor` from the
    scalar meta at restore time.
    """
    st_l = ktree_rank_structure(setup.tree_lefts, strict=False)
    st_r = ktree_rank_structure(setup.tree_rights, strict=True)
    sp_l = _tree_splitting(setup.tree_lefts)
    sp_r = _tree_splitting(setup.tree_rights)
    arrays = {
        "l_adjacency": st_l.adjacency,
        "l_payload": st_l.payload,
        "l_level": st_l.level,
        "l_comp": sp_l.comp,
        "l_sizes": sp_l.sizes,
        "r_adjacency": st_r.adjacency,
        "r_payload": st_r.payload,
        "r_level": st_r.level,
        "r_comp": sp_r.comp,
        "r_sizes": sp_r.sizes,
    }
    meta = {
        "k": int(setup.k),
        "h_l": int(setup.tree_lefts.height),
        "h_r": int(setup.tree_rights.height),
        "delta_l": float(sp_l.delta),
        "delta_r": float(sp_r.delta),
    }
    return arrays, meta


def interval_count_from_snapshot(arrays, meta):
    """Inverse of :func:`interval_count_snapshot_arrays`.

    Returns ``(st_l, st_r, sp_l, sp_r)`` ready for
    :func:`count_on_structures`.
    """
    k = int(meta["k"])

    def _structure(prefix: str, h: int, strict: bool) -> SearchStructure:
        return SearchStructure(
            adjacency=np.asarray(arrays[f"{prefix}_adjacency"], dtype=np.int64),
            payload=np.asarray(arrays[f"{prefix}_payload"], dtype=np.float64),
            level=np.asarray(arrays[f"{prefix}_level"], dtype=np.int64),
            successor=ktree_rank_successor(k, h, strict),
            directed=True,
        )

    def _splitting(prefix: str, delta: float) -> Splitting:
        comp = np.asarray(arrays[f"{prefix}_comp"], dtype=np.int64)
        sizes = np.asarray(arrays[f"{prefix}_sizes"], dtype=np.int64)
        return Splitting(comp, int(sizes.shape[0]), float(delta), sizes)

    st_l = _structure("l", int(meta["h_l"]), strict=False)
    st_r = _structure("r", int(meta["h_r"]), strict=True)
    sp_l = _splitting("l", float(meta["delta_l"]))
    sp_r = _splitting("r", float(meta["delta_r"]))
    return st_l, st_r, sp_l, sp_r


def report_intersections_mesh(
    setup: IntervalSearchSetup,
    a: np.ndarray,
    b: np.ndarray,
    engine: MeshEngine | None = None,
) -> tuple[list[np.ndarray], float]:
    """Intersecting interval ids per query; returns ``(reports, mesh_steps)``.

    Output-sensitive: each query's mesh search path has length
    ``O(log n + k_query)``.

    Traced phases: engine span ``intervals:report`` wrapping
    ``intervals:report:range-walk`` (alpha-beta walk + id collection),
    ``intervals:report:stab`` (interval-tree stabbing + id collection)
    and ``intervals:report:collect`` (the final per-query union).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.shape[0]
    tree = setup.tree_lefts
    st_range = ktree_range_structure(tree)
    istruct = setup.istruct
    size = max(tree.size, istruct.size, m)
    if engine is None:
        engine = MeshEngine(MeshShape.for_size(size).side)
    t0 = engine.clock.time

    with traced(engine.clock, "intervals:report"):
        # leg 1: range walk over left endpoints for l in [a, b].  The walker
        # visits leaves with key strictly above its lower bound, so nudge the
        # bound just below ``a`` to make the range closed at ``a``.
        with traced(engine.clock, "intervals:report:range-walk"):
            keys = np.stack([np.nextafter(a, -np.inf), b], axis=1)
            qs1 = QuerySet.start(keys, 0, state_width=2, record_trace=True)
            sp1, sp2 = _tree_splittings_ab(tree)
            alphabeta_multisearch(engine, st_range, qs1, sp1, sp2)

            first_leaf = tree.first_leaf()
            n = setup.lefts.size
            leg1: list[np.ndarray] = []
            for i, path in enumerate(qs1.paths()):
                visited = np.array([v for v in path if v >= first_leaf], dtype=np.int64)
                ranks = visited - first_leaf
                ranks = ranks[ranks < n]
                ids = setup.left_order[ranks]
                sel = (setup.lefts[ids] >= a[i]) & (setup.lefts[ids] <= b[i])
                leg1.append(np.unique(ids[sel]))

        # leg 2: stabbing at a on the flattened interval tree
        with traced(engine.clock, "intervals:report:stab"):
            qs2 = QuerySet.start(a, istruct.root_vertex, state_width=1, record_trace=True)
            alphabeta_multisearch(
                engine, istruct.structure, qs2, istruct.splitting1, istruct.splitting2
            )
            leg2: list[np.ndarray] = []
            for path in qs2.paths():
                ivs = istruct.vertex_interval[np.array(path, dtype=np.int64)]
                leg2.append(np.unique(ivs[ivs >= 0]))

        with traced(engine.clock, "intervals:report:collect"):
            reports = [
                np.unique(np.concatenate([l1, l2])).astype(np.int64)
                for l1, l2 in zip(leg1, leg2)
            ]
    return reports, engine.clock.time - t0
