"""E9 — Theorems 8.2-8.4: separation, hull merging, 3-d hull construction.

Separation agreement with the exact LP oracle over a gap sweep (E9a; the
verdict is ``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e9a_separation.json``); divide-and-conquer hull construction vs
scipy's Qhull on volume (E9b, checked by the same module at every point,
with no document).  Neither charges mesh steps: their points record
``mesh_steps: null``.
"""

import numpy as np
from scipy.spatial import ConvexHull

from repro.apps.hullmerge import convex_hull_divide_conquer
from repro.apps.separation import separate_polyhedra, separation_oracle
from repro.bench.workloads import sphere_points
from repro.geometry.dk3d import build_dk_hierarchy


def run_separation(offset: float, n=150, seed=0) -> dict:
    A = sphere_points(n, seed=seed)
    B = sphere_points(n, seed=seed + 99, center=(offset, 0.0, 0.0))
    ha = build_dk_hierarchy(A, seed=1)
    hb = build_dk_hierarchy(B, seed=2)
    res = separate_polyhedra(ha, hb)
    return {
        "mesh_steps": None,
        "separated": bool(res.separated),
        "oracle": bool(separation_oracle(A, B)),
        "decided": bool(res.decided),
        "fw_iters": res.iterations,
        "support_queries": res.support_queries,
    }


def run_hull(n: int) -> dict:
    """Relative volume error of the divide-and-conquer hull vs Qhull."""
    pts = np.random.default_rng(n).normal(size=(n, 3))
    ours = convex_hull_divide_conquer(pts, leaf_size=64)
    ref = ConvexHull(pts)
    return {"mesh_steps": None, "volume_rel_err": abs(ours.volume() - ref.volume) / ref.volume}
