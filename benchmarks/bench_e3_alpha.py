"""E3 — Theorem 5: alpha-partitionable multisearch in
O(sqrt(n) + r*sqrt(n)/log n), vs the O(r*sqrt(n)) synchronous baseline.

The broom workload sweeps the longest search path r (handle length) at
roughly constant n.  Success: Algorithm 2's cost grows like r/log n
full-phase units, the baseline's like r; the speedup approaches
Theta(log n); the crossover sits at r = Theta(log n).  The verdict is
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e3_alpha.json``, against ``repro.core.analysis``'s closed forms.
"""

import numpy as np

from repro.core.alpha import alpha_multisearch
from repro.core.baseline import synchronous_multisearch
from repro.core.model import QuerySet
from repro.graphs.broom import broom_structure, build_broom
from repro.mesh.engine import MeshEngine

TREE_HEIGHT = 6  # 64 handles
M = 1024


def run_once(handle_len: int, method: str) -> dict:
    br = build_broom(2, TREE_HEIGHT, handle_len, seed=1)
    st = broom_structure(br)
    rng = np.random.default_rng(2)
    keys = rng.uniform(br.tree.leaf_keys[0], br.tree.leaf_keys[-1], M)
    eng = MeshEngine.for_problem(max(br.size, M))
    qs = QuerySet.start(keys, 0)
    if method == "alpha":
        res = alpha_multisearch(eng, st, qs, br.splitting())
    else:
        res = synchronous_multisearch(eng, st, qs, max_steps=10**6)
    # predictions must use the engine's actual mesh size (>= max(n, m))
    return {"mesh_steps": res.mesh_steps, "n": eng.size, "r": br.longest_path}
