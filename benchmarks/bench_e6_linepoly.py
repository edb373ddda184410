"""E6 — Theorem 8.1: multiple line-polyhedron queries via DK-hierarchy
multisearch.

Sweeps the polyhedron size; all answers verified against the brute-force
oracle.  Success: query-phase mesh steps scale like sqrt(n) (the DAG
multisearch bound), answers 100% correct.  ``improved_walks`` counts the
tangent searches whose host-side check walked at least one step; on this
workload they are exactly the two sides of each intersecting line, each
walking to the ``max_walk + 1`` cap before the hit is declared.
"""

import numpy as np
import pytest

from repro.apps.linepoly import brute_force_line_test, line_polyhedron_queries
from repro.bench.reporting import Table
from repro.bench.workloads import random_lines, sphere_points
from repro.geometry.dk3d import build_dk_hierarchy

SIZES = [128, 256, 512, 1024]
M = 256


def run_once(n: int):
    pts = sphere_points(n, seed=n)
    hier = build_dk_hierarchy(pts, seed=1)
    p0, d = random_lines(M, seed=2)
    run = line_polyhedron_queries(hier, p0, d)
    oracle = brute_force_line_test(pts, hier.hulls[0].vertices, p0, d)
    correct = float((run.intersects == oracle).mean())
    dag_size = sum(h.vertices.size for h in hier.hulls) + 1
    return run, correct, dag_size


@pytest.fixture(scope="module")
def e6_table(save_table):
    table = Table(
        f"E6 / Theorem 8.1: line-polyhedron queries, m={M} lines (x2 tangent searches)",
        ["n_vertices", "dag_size", "mesh_steps", "steps/sqrt(dag)", "correct",
         "hits", "improved_walks"],
    )
    rows = []
    for n in SIZES:
        run, correct, dag_size = run_once(n)
        rows.append((run.mesh_steps, dag_size, correct, run.improved))
        table.add(
            n,
            dag_size,
            run.mesh_steps,
            run.mesh_steps / dag_size**0.5,
            correct,
            int(run.intersects.sum()),
            run.improved,
        )
    save_table(table, "e6_linepoly")
    return rows


def test_e6_shape(e6_table, benchmark):
    ratios = []
    for steps, dag_size, correct, improved in e6_table:
        assert correct == 1.0
        assert improved <= M  # robustness net fires on a minority
        ratios.append(steps / dag_size**0.5)
    assert max(ratios) / min(ratios) < 2.0
    benchmark(run_once, 256)
