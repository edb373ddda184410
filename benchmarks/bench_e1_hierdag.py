"""E1 — Theorem 2: multisearch on hierarchical DAGs in O(sqrt(n)).

Measures the table the theorem implies: for a mu-ary search DAG and
n key queries, mesh steps for Algorithm 1 vs the synchronous baseline,
as n sweeps (``e1_hierdag``), and for mu in {2, 3, 4} and query loads m
around n (``e1b_variants``).  Success criteria (DESIGN.md): steps/sqrt(n)
bounded for Algorithm 1 while the baseline's grows like log n; widening
gap.  The verdicts are ``tests/bench/test_paper_verdicts.py`` over the
committed ``BENCH_e1_hierdag.json`` and ``BENCH_e1b_variants.json``.
"""

import numpy as np

from repro.core.baseline import synchronous_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import QuerySet
from repro.graphs.adapters import hierdag_search_structure
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.mesh.engine import MeshEngine

M_QUERIES = 1024


def sweep_setup(height: int, method: str) -> dict:
    """Untimed problem construction (graph, structure, keys) for one point."""
    dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(2)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], M_QUERIES)
    return {"st": st, "keys": keys, "n": int(dag.size)}


def sweep_run(ctx: dict, height: int, method: str) -> dict:
    """Timed part: engine + query set + the multisearch itself."""
    eng = MeshEngine.for_problem(max(ctx["n"], M_QUERIES))
    qs = QuerySet.start(ctx["keys"], 0)
    if method == "hierdag":
        res = hierdag_multisearch(eng, ctx["st"], qs, mu=2.0, c=2)
    else:
        res = synchronous_multisearch(eng, ctx["st"], qs)
    return {"mesh_steps": res.mesh_steps, "n": ctx["n"]}


def run_variant(mu: int, height: int, m: int) -> dict:
    """Algorithm 1 on a mu-ary DAG of ``height`` with ``m`` key queries."""
    dag, leaf_keys = build_mu_ary_search_dag(mu, height, seed=1)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(2)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], m)
    eng = MeshEngine.for_problem(max(dag.size, m))
    qs = QuerySet.start(keys, 0)
    res = hierdag_multisearch(eng, st, qs, mu=float(mu), c=2)
    assert not qs.active.any()
    return {"mesh_steps": res.mesh_steps, "n": int(dag.size)}


