"""Ablation — what the band machinery buys (Algorithm 1 design choices).

Three variants of hierarchical-DAG multisearch at fixed n:

* ``c=2``   — engineering band constant (benches' default): most bands;
* ``c=4``   — the paper's constant ``mu_constant(2)``: fewer bands at
              feasible heights (the log* tower collapses earlier);
* ``none``  — bands disabled: every level processed at full-mesh side,
              i.e. the naive O(sqrt(n) log n) schedule.

``bands`` is the number of bands in the variant's plan.  The per-stage
cost profile of a run, showing where the steps go (B* tail vs band
phases), is what ``python -m repro.bench.runner ablation_bands --trace``
prints.  The verdict is ``tests/bench/test_paper_verdicts.py`` over the
committed ``BENCH_ablation_bands.json``.
"""

import numpy as np

from repro.core.bands import compute_bands
from repro.core.hierdag import HierDagPlan, hierdag_multisearch, plan_hierdag
from repro.core.model import QuerySet
from repro.graphs.adapters import hierdag_search_structure
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.mesh.engine import MeshEngine

M = 1024


def no_band_plan(st, mesh_side: int) -> HierDagPlan:
    """A plan with an empty band list: everything lands in B*."""
    level_sizes = np.bincount(st.level)
    deco = compute_bands(level_sizes, 2.0, c=10**6)  # c huge -> log* < 0
    assert not deco.bands
    return HierDagPlan(deco, [], mesh_side, 1 + st.adjacency.shape[1])


def run_once(height: int, variant: str) -> dict:
    dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(2)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], M)
    eng = MeshEngine.for_problem(max(dag.size, M))
    qs = QuerySet.start(keys, 0)
    if variant == "none":
        plan = no_band_plan(st, eng.shape.rows)
    else:
        plan = plan_hierdag(st, eng.shape.rows, 2.0, c=int(variant[2:]))
    res = hierdag_multisearch(eng, st, qs, mu=2.0, plan=plan)
    assert not qs.active.any()
    return {"mesh_steps": res.mesh_steps, "n": int(dag.size), "bands": len(plan.bands)}
