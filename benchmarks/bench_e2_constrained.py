"""E2 — Lemma 3: Constrained-Multisearch runs in O(sqrt(n)) regardless of
congestion.

One grid over the tree height and the congestion ``skew`` (the fraction
of queries starting at the root; the rest start spread over the
depth-cut subtree roots).  Success: steps/sqrt(n) bounded across heights
at maximum congestion (skew = 1, E2a); steps vary by at most a small
constant factor across skews at height 12 (E2b).  The verdicts are
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e2_constrained.json``.
"""

import numpy as np

from repro.core.constrained import constrained_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import splitting_from_labels
from repro.graphs.adapters import ktree_directed_structure
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine

M = 1024


def setup(height):
    t = build_balanced_search_tree(2, height, seed=1)
    st = ktree_directed_structure(t)
    sp = splitting_from_labels(t.alpha_splitter().comp, t.children, 0.5)
    return t, st, sp


def sweep_setup(height=12, skew=1.0):
    """Untimed problem construction (tree, splitting, keys, start spread)."""
    t, st, sp = setup(height)
    rng = np.random.default_rng(3)
    keys = rng.uniform(t.leaf_keys[0], t.leaf_keys[-1], M)
    cut = max(1, (t.height + 1) // 2)
    roots = np.flatnonzero(t.depth == cut)
    starts = np.zeros(M, dtype=np.int64)
    spread = rng.random(M) >= skew
    picks = roots[rng.integers(0, roots.size, M)]
    starts[spread] = picks[spread]
    keys[spread] = t.subtree_lo[starts[spread]] + 1e-9
    return {"st": st, "sp": sp, "keys": keys, "starts": starts, "n": int(t.size)}


def sweep_run(ctx, height=12, skew=1.0):
    """Timed part: engine + query set + Constrained-Multisearch."""
    eng = MeshEngine.for_problem(max(ctx["n"], M))
    qs = QuerySet.start(ctx["keys"], ctx["starts"])
    stats = constrained_multisearch(eng, ctx["st"], qs, ctx["sp"])
    return {
        "mesh_steps": eng.clock.time,
        "n": ctx["n"],
        "copies": stats.copies_created,
        "max_q_per_copy": stats.max_queries_per_copy,
    }
