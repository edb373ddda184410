"""E6 — Theorem 8.1: multiple line-polyhedron queries via DK-hierarchy
multisearch.

Sweeps the polyhedron size; all answers verified against the brute-force
oracle.  Success: query-phase mesh steps scale like sqrt(n) (the DAG
multisearch bound), answers 100% correct.  ``improved_walks`` counts the
tangent searches whose host-side check walked at least one step; on this
workload they are exactly the two sides of each intersecting line, each
walking to the ``max_walk + 1`` cap before the hit is declared.  The
verdict is ``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e6_linepoly.json``.
"""

from repro.apps.linepoly import brute_force_line_test, line_polyhedron_queries
from repro.bench.workloads import random_lines, sphere_points
from repro.geometry.dk3d import build_dk_hierarchy

M = 256


def run_once(n: int) -> dict:
    pts = sphere_points(n, seed=n)
    hier = build_dk_hierarchy(pts, seed=1)
    p0, d = random_lines(M, seed=2)
    run = line_polyhedron_queries(hier, p0, d)
    oracle = brute_force_line_test(pts, hier.hulls[0].vertices, p0, d)
    correct = float((run.intersects == oracle).mean())
    dag_size = sum(h.vertices.size for h in hier.hulls) + 1
    return {
        "mesh_steps": run.mesh_steps,
        "dag_size": dag_size,
        "correct": correct,
        "hits": int(run.intersects.sum()),
        "improved": run.improved,
    }
