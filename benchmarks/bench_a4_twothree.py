"""A4 — generality: Theorem 5 on an irregular dynamic tree.

Algorithm 2's machinery (splitters, constrained multisearch) is defined
for arbitrary alpha-partitionable graphs, but E3 exercises only complete
trees.  This bench runs the same lookup batch over (a) a complete binary
search tree and (b) a 2-3 tree built by random inserts + deletes over the
same key set, and checks the costs stay within a constant factor —
irregular arities and allocation-ordered vertex ids change nothing.  The
verdict is ``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_a4_twothree.json``.
"""

import numpy as np

from repro.core.alpha import alpha_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import splitting_from_labels
from repro.graphs.adapters import ktree_directed_structure
from repro.graphs.ktree import tree_from_keys
from repro.graphs.twothree import TwoThreeTree, flatten_two_three
from repro.mesh.engine import MeshEngine

M = 1024


def run_once(n: int, variant: str) -> dict:
    rng = np.random.default_rng(n)
    keys = np.sort(rng.choice(10 * n, n, replace=False)).astype(float)
    queries = keys[rng.integers(0, n, M)]
    if variant == "complete":
        t = tree_from_keys(2, keys)
        st = ktree_directed_structure(t)
        sp = splitting_from_labels(t.alpha_splitter().comp, t.children, 0.5)
        size = t.size
    else:
        tt = TwoThreeTree()
        for k in rng.permutation(keys):
            tt.insert(float(k))
        for k in rng.choice(keys, n // 4, replace=False):
            tt.delete(float(k))
        for k in rng.choice(keys, n // 4, replace=False):
            tt.insert(float(k))
        st, sp, leaf_key = flatten_two_three(tt)
        size = st.size
    eng = MeshEngine.for_problem(max(size, M))
    qs = QuerySet.start(queries, 0)
    res = alpha_multisearch(eng, st, qs, sp)
    assert not qs.active.any()
    return {"mesh_steps": res.mesh_steps, "n": int(size)}
