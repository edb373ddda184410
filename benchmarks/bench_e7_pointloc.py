"""E7 — Section 5: multiple planar point location via the Kirkpatrick
subdivision hierarchy, as a Theorem 2 multisearch.

Sweeps the subdivision size; all answers verified geometrically.
Success: Algorithm 1's steps/sqrt(DAG size) bounded while the synchronous
baseline's ratio grows with the hierarchy depth.  E7b locates queries in
the faces of polygonal subdivisions ([Kir83]'s full setting), verified
against a brute-force face search.  The verdicts are
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e7_pointloc.json`` and ``BENCH_e7b_faces.json``.
"""

from repro.apps.pointloc import locate_faces_mesh, locate_points_mesh
from repro.bench.workloads import uniform_sites
from repro.geometry.primitives import point_in_triangle
from repro.util.rng import make_rng

M = 512


def run_once(n_sites: int, method: str) -> dict:
    sites = uniform_sites(n_sites, seed=n_sites)
    q = make_rng(1).uniform(0, 100, (M, 2))
    run = locate_points_mesh(sites, q, seed=2, method=method)
    pts = run.hierarchy.points
    tris = run.hierarchy.base_triangles
    ok = 0
    for p, t in zip(q, run.triangle):
        if t >= 0 and point_in_triangle(p, pts[tris[t, 0]], pts[tris[t, 1]], pts[tris[t, 2]]):
            ok += 1
    return {
        "mesh_steps": run.mesh_steps,
        "dag_size": run.dag_size,
        "levels": run.hierarchy.n_levels,
        "correct": ok / M,
    }


def run_faces(n_sites: int) -> dict:
    """Face location in a subdivision merged from ``n_sites`` sites' triangles."""
    sites = uniform_sites(n_sites, seed=n_sites + 1)
    q = make_rng(2).uniform(0, 100, (M, 2))
    run = locate_faces_mesh(sites, q, merge_fraction=0.7, seed=3)
    want = run.subdivision.locate_face_brute(q)
    return {
        "mesh_steps": run.mesh_steps,
        "faces": run.subdivision.n_faces,
        "largest_face": int(run.subdivision.face_sizes().max()),
        "correct": bool((run.face == want).all()),
    }
