"""Context bench — the paper's positioning against [DR90].

Three strategies on the same broom workload (r sweep):

* hypercube synchronous — [DR90]'s approach on its native network,
  O(r log n) (diameter log n per advancement);
* mesh synchronous      — the same approach on the mesh, O(r sqrt(n)):
  the non-starter the paper's introduction calls out;
* mesh multisearch      — Algorithm 2, O(sqrt(n) + r sqrt(n)/log n).

The point the table makes: the synchronous strategy's cost is governed
by the network diameter, so it is viable on the hypercube and hopeless
on the mesh; the paper's contribution is recovering mesh-optimality
despite the sqrt(n) diameter (a mesh algorithm cannot beat sqrt(n) —
that is the distance information must travel).  The verdict is
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_dr90_hypercube.json``.
"""

import numpy as np

from repro.core.alpha import alpha_multisearch
from repro.core.baseline import synchronous_multisearch
from repro.core.model import QuerySet
from repro.graphs.broom import broom_structure, build_broom
from repro.hypercube import HypercubeEngine
from repro.mesh.engine import MeshEngine

M = 1024


def run_once(handle_len: int, strategy: str) -> dict:
    br = build_broom(2, 6, handle_len, seed=1)
    st = broom_structure(br)
    rng = np.random.default_rng(2)
    keys = rng.uniform(br.tree.leaf_keys[0], br.tree.leaf_keys[-1], M)
    if strategy == "hypercube":
        eng = HypercubeEngine.for_problem(max(br.size, M))
        qs = QuerySet.start(keys, 0)
        res = synchronous_multisearch(eng, st, qs, max_steps=10**6)
    elif strategy == "mesh-sync":
        eng = MeshEngine.for_problem(max(br.size, M))
        qs = QuerySet.start(keys, 0)
        res = synchronous_multisearch(eng, st, qs, max_steps=10**6)
    else:
        eng = MeshEngine.for_problem(max(br.size, M))
        qs = QuerySet.start(keys, 0)
        res = alpha_multisearch(eng, st, qs, br.splitting())
    return {"mesh_steps": res.mesh_steps, "n": int(br.size), "r": br.longest_path}
