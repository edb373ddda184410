"""Adapters: graph classes -> :class:`~repro.core.model.SearchStructure`.

Each adapter packages a graph's flat arrays together with a *vectorized
on-line successor function* obeying the O(1)-information contract of
Section 2: element *i* of every batch is computed only from vertex *i*'s
record (payload + adjacency + level) and query *i*'s record (key + state).

Successor functions here:

* :func:`hierdag_search_structure` — key descent in a ``mu``-ary search
  DAG (hierarchical DAG workload, E1).
* :func:`ktree_directed_structure` — key descent root-to-leaf in a
  balanced k-ary search tree (alpha-partitionable workload, E3).
* :func:`ktree_range_structure` — the undirected *range walk*: descend to
  the first leaf with key >= lo, then traverse leaves in key order (up and
  down tree edges) until the key exceeds hi (alpha-beta workload, E4, and
  the Section 6 interval-style traversal).
"""

from __future__ import annotations

import numpy as np

from repro.core.model import STOP, SearchStructure
from repro.graphs.hierarchical import HierarchicalDAG
from repro.graphs.ktree import BalancedKTree

__all__ = [
    "hierdag_search_structure",
    "ktree_directed_structure",
    "ktree_range_structure",
    "ktree_rank_structure",
    "ktree_rank_successor",
]


def hierdag_search_structure(dag: HierarchicalDAG) -> SearchStructure:
    """Key-search structure over a :func:`build_mu_ary_search_dag` DAG.

    Query key: the search key.  Successor: at an internal vertex compare
    against the ``mu - 1`` separators in the payload and step to the
    matching child; at a bottom-level vertex STOP.
    """
    mu = int(round(dag.mu))
    h = dag.height

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        internal = vlevel < h
        if internal.all():
            # whole batch at internal vertices (the common case in a
            # level-synchronous descent): index directly, no re-masking
            keys = np.asarray(qkey)
            idx = (vpayload[:, : mu - 1] < keys[:, None]).sum(axis=1)
            nxt = vadjacency[np.arange(m), idx]
            return nxt, qstate
        nxt = np.full(m, STOP, dtype=np.int64)
        if internal.any():
            seps = vpayload[internal, : mu - 1]
            keys = np.asarray(qkey)[internal]
            # child index: number of separators strictly below the key
            idx = (seps < keys[:, None]).sum(axis=1)
            nxt[internal] = vadjacency[internal, :][np.arange(idx.size), idx]
        return nxt, qstate

    return SearchStructure(
        adjacency=dag.children,
        payload=dag.payload,
        level=dag.level_of,
        successor=successor,
        directed=True,
    )


def ktree_directed_structure(tree: BalancedKTree) -> SearchStructure:
    """Root-to-leaf key search in a balanced k-ary tree (Figure 2 setting).

    Payload layout: ``[sep_0 .. sep_{k-2}, subtree_lo, subtree_hi]``.
    """
    k = tree.k
    h = tree.height
    payload = np.concatenate(
        [tree.separators, tree.subtree_lo[:, None], tree.subtree_hi[:, None]], axis=1
    )

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        internal = vlevel < h
        if internal.all():
            keys = np.asarray(qkey)
            idx = (vpayload[:, : k - 1] < keys[:, None]).sum(axis=1)
            nxt = vadjacency[np.arange(m), idx]
            return nxt, qstate
        nxt = np.full(m, STOP, dtype=np.int64)
        if internal.any():
            seps = vpayload[internal, : k - 1]
            keys = np.asarray(qkey)[internal]
            idx = (seps < keys[:, None]).sum(axis=1)
            nxt[internal] = vadjacency[internal, :][np.arange(idx.size), idx]
        return nxt, qstate

    return SearchStructure(
        adjacency=tree.children,
        payload=payload,
        level=tree.depth,
        successor=successor,
        directed=True,
    )


def ktree_rank_structure(tree: BalancedKTree, strict: bool = False) -> SearchStructure:
    """Rank queries (``#{keys <= x}``, or ``< x`` when ``strict``) as a
    root-to-leaf descent with a counting state.

    At an internal vertex the query steps to the child containing ``x``
    and adds the leaf counts of the skipped-over left siblings (a complete
    tree's child subtree size is determined by the vertex's depth, so this
    is O(1) local work); at the leaf it adds the final comparison.  State
    ``[count]`` ends as the rank.  This is the augmentation behind the
    Section 6 intersection *counting* identity.
    """
    payload = np.concatenate(
        [tree.separators, tree.subtree_lo[:, None], tree.subtree_hi[:, None]], axis=1
    )
    return SearchStructure(
        adjacency=tree.children,
        payload=payload,
        level=tree.depth,
        successor=ktree_rank_successor(tree.k, tree.height, strict),
        directed=True,
    )


def ktree_rank_successor(k: int, h: int, strict: bool):
    """The counting rank descent for a complete ``k``-ary tree of height
    ``h``.  A factory (rather than a closure inside
    :func:`ktree_rank_structure`) so a snapshot-restored structure can be
    rewired from its flat arrays without rebuilding the tree."""

    below = np.less if strict else np.less_equal
    #: leaves under each child of a depth-``d`` vertex, ``d < h``
    leaves_per_child = k ** (h - np.arange(h) - 1).astype(np.float64)

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        new_state = np.array(qstate, copy=True)
        keys = np.asarray(qkey).reshape(m)
        internal = vlevel < h
        if np.count_nonzero(internal) == m:  # internal.all(), unwrapped
            # whole batch at internal vertices (every round but the last
            # of a level-synchronous descent): index directly, no masks
            idx = below(vpayload[:, : k - 1], keys[:, None]).sum(axis=1)
            new_state[:, 0] += idx * leaves_per_child[vlevel]
            return vadjacency[np.arange(m), idx], new_state
        nxt = np.full(m, STOP, dtype=np.int64)
        if internal.any():
            seps = vpayload[internal, : k - 1]
            idx = below(seps, keys[internal][:, None]).sum(axis=1)
            nxt[internal] = vadjacency[internal, :][np.arange(idx.size), idx]
            new_state[internal, 0] += idx * leaves_per_child[vlevel[internal]]
        leaf = ~internal
        if leaf.any():
            key_here = vpayload[leaf, k - 1]  # a leaf's subtree_lo is its key
            new_state[leaf, 0] += below(key_here, keys[leaf]).astype(np.float64)
        return nxt, new_state

    return successor


#: range-walk modes (stored in state[:, 0])
_DESCEND, _ASCEND = 0.0, 1.0


def ktree_range_structure(tree: BalancedKTree) -> SearchStructure:
    """The undirected range walk over a balanced k-ary tree (Figure 3 setting).

    Query key: ``(lo, hi)`` (a 2-wide key).  State: ``[mode, target]``
    where ``target`` is the exclusive lower bound for the next leaf to
    visit (initially ``-inf``; the walk starts at the root and visits
    every leaf with key in ``[lo, hi]`` in key order, then stops).

    Adjacency layout: column 0 = parent (``-1`` at the root), columns
    ``1..k`` = children (``-1`` at leaves).  Payload layout:
    ``[sep_0 .. sep_{k-2}, subtree_lo, subtree_hi]``.

    The walk moves only along tree edges (one step per visit) and each
    move is decided from the current vertex's record alone, so it is a
    legal undirected multisearch per Section 2.
    """
    k = tree.k
    payload = np.concatenate(
        [tree.separators, tree.subtree_lo[:, None], tree.subtree_hi[:, None]], axis=1
    )
    adjacency = np.concatenate([tree.parent[:, None], tree.children], axis=1)
    is_leaf = tree.children[:, 0] < 0

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        m = vid.shape[0]
        nxt = np.full(m, STOP, dtype=np.int64)
        new_state = np.array(qstate, copy=True)
        lo = np.asarray(qkey)[:, 0]
        hi = np.asarray(qkey)[:, 1]
        mode = qstate[:, 0]
        target = np.maximum(qstate[:, 1], lo)  # next leaf must have key > target - or >= lo
        leaf = is_leaf[vid]
        seps = vpayload[:, : k - 1]
        sub_lo = vpayload[:, k - 1]
        sub_hi = vpayload[:, k]
        parent = vadjacency[:, 0]

        # -- at a leaf: the visit "reports" the leaf; plan the next move
        at_leaf = leaf
        if at_leaf.any():
            key_here = sub_lo  # a leaf's subtree range is its own key
            done = at_leaf & (key_here >= hi)
            cont = at_leaf & ~done
            nxt[cont] = parent[cont]
            new_state[cont, 0] = _ASCEND
            new_state[cont, 1] = key_here[cont]  # visited up to here (exclusive)
            # done leaves keep STOP

        # -- internal, descending: step into the child that contains the
        #    smallest leaf key > target
        desc = ~leaf & (mode == _DESCEND)
        if desc.any():
            t = target[desc]
            idx = (seps[desc] <= t[:, None]).sum(axis=1)  # first child with hi > t
            nxt[desc] = vadjacency[desc, :][np.arange(idx.size), 1 + idx]

        # -- internal, ascending: if this subtree still contains unvisited
        #    in-range leaves, turn around and descend; else keep ascending
        asc = ~leaf & (mode == _ASCEND)
        if asc.any():
            has_more = sub_hi > target
            turn = asc & has_more
            if turn.any():
                t = target[turn]
                idx = (seps[turn] <= t[:, None]).sum(axis=1)
                nxt[turn] = vadjacency[turn, :][np.arange(idx.size), 1 + idx]
                new_state[turn, 0] = _DESCEND
            keep = asc & ~has_more
            if keep.any():
                up = parent[keep]
                nxt[keep] = up  # STOP at the root (parent == -1 == STOP)
        return nxt, new_state

    return SearchStructure(
        adjacency=adjacency,
        payload=payload,
        level=tree.depth,
        successor=successor,
        directed=False,
    )
