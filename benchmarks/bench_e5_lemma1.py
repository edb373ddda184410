"""E5 — Lemma 1: the two-phase band solver runs in
O(sqrt(|B_i|) * log(Delta h_i)) on its submesh.

Sweeps the DAG height and measures the Lemma 1 charge for band B_0
against the closed form, plus the phase split (Phase 1 must dominate the
level count but not the cost).  The verdict is
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e5_lemma1.json``: steps within 2.5x of
``sub_side * 8 * (log2(dh) + 2)``.
"""

import numpy as np

from repro.core.hierdag import lemma1_band_steps, plan_hierdag
from repro.core.model import QuerySet
from repro.graphs.adapters import hierdag_search_structure
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.mesh.engine import MeshEngine

M = 512


def run_once(height: int) -> dict:
    dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(2)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], M)
    eng = MeshEngine.for_problem(max(dag.size, M))
    plan = plan_hierdag(st, eng.shape.rows, 2.0, c=2)
    bp = plan.bands[0]
    qs = QuerySet.start(keys, 0)
    t0 = eng.clock.time
    detail = lemma1_band_steps(eng, st, qs, bp)
    return {
        "mesh_steps": eng.clock.time - t0,
        "band_vertices": bp.band.n_vertices,
        "dh": bp.band.n_levels,
        "sub_side": bp.sub_side,
        "phase1": detail["phase1"],
        "phase2": detail["phase2"],
    }
