"""E4 — Theorem 7: alpha-beta-partitionable multisearch (undirected range
walks) in O(sqrt(n) + r*sqrt(n)/log n).

Range walks over an undirected balanced tree; the range width sweeps the
walk length r.  Success: Algorithm 3's steps grow like ceil(r / Omega(log
n)) phase units while the baseline pays r full-mesh multisteps.  The
verdict is ``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e4_alphabeta.json``.
"""

import numpy as np

from repro.core.alphabeta import alphabeta_multisearch
from repro.core.baseline import synchronous_multisearch
from repro.core.model import QuerySet, run_reference
from repro.core.splitters import splitting_from_labels
from repro.graphs.adapters import ktree_range_structure
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine

HEIGHT = 11
M = 512


def sweep_setup(width: float, method: str) -> dict:
    """Untimed: the tree, its splitters, the range keys and the longest
    walk ``r_max`` of the sequential reference run."""
    t = build_balanced_search_tree(2, HEIGHT, seed=1)
    st = ktree_range_structure(t)
    s1, s2, _ = t.alpha_beta_splitters()
    rng = np.random.default_rng(3)
    lo = rng.uniform(t.leaf_keys[0], t.leaf_keys[-1] - width, M)
    keys = np.stack([lo, lo + width], axis=1)
    ref = run_reference(st, keys, 0, state_width=2, max_steps=200_000)
    return {
        "st": st,
        "sp1": splitting_from_labels(s1.comp, t.children, 0.5),
        "sp2": splitting_from_labels(s2.comp, t.children, 1 / 3),
        "keys": keys,
        "n": int(t.size),
        "r_max": max(len(p) for p in ref.paths()),
    }


def sweep_run(ctx: dict, width: float, method: str) -> dict:
    """Timed part: engine + query set + the range-walk multisearch."""
    eng = MeshEngine.for_problem(max(ctx["n"], M))
    qs = QuerySet.start(ctx["keys"], 0, state_width=2)
    if method == "alphabeta":
        res = alphabeta_multisearch(eng, ctx["st"], qs, ctx["sp1"], ctx["sp2"])
    else:
        res = synchronous_multisearch(eng, ctx["st"], qs, max_steps=10**6)
    return {"mesh_steps": res.mesh_steps, "n": ctx["n"], "r_max": ctx["r_max"]}
