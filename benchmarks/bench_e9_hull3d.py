"""E9 — Theorems 8.2-8.4: separation, hull merging, 3-d hull construction.

Separation agreement with the exact LP oracle over a gap sweep; hull
merge and divide-and-conquer construction vs scipy's Qhull on volume.
"""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from repro.apps.hullmerge import convex_hull_divide_conquer, merge_hulls
from repro.apps.separation import separate_polyhedra, separation_oracle
from repro.bench.reporting import Table
from repro.bench.workloads import sphere_points
from repro.geometry.dk3d import build_dk_hierarchy
from repro.geometry.hull3d import convex_hull_3d

GAPS = [0.2, 0.8, 1.4, 2.0, 2.6, 3.2]
HULL_SIZES = [200, 400, 800]


def run_separation(offset: float, n=150, seed=0):
    A = sphere_points(n, seed=seed)
    B = sphere_points(n, seed=seed + 99, center=(offset, 0.0, 0.0))
    ha = build_dk_hierarchy(A, seed=1)
    hb = build_dk_hierarchy(B, seed=2)
    res = separate_polyhedra(ha, hb)
    want = separation_oracle(A, B)
    return res, want


def run_hull(n: int):
    pts = np.random.default_rng(n).normal(size=(n, 3))
    ours = convex_hull_divide_conquer(pts, leaf_size=64)
    ref = ConvexHull(pts)
    return abs(ours.volume() - ref.volume) / ref.volume


@pytest.fixture(scope="module")
def e9_tables(save_table):
    t1 = Table(
        "E9a / Theorem 8.2: separation gap sweep (sphere radius 1 pairs)",
        ["center_gap", "separated", "oracle", "decided", "fw_iters", "support_queries"],
    )
    sep_rows = []
    for g in GAPS:
        res, want = run_separation(g)
        sep_rows.append((res, want))
        t1.add(g, res.separated, want, res.decided, res.iterations, res.support_queries)
    save_table(t1, "e9a_separation")

    t2 = Table(
        "E9b / Theorems 8.3-8.4: divide-and-conquer 3-d hull vs Qhull",
        ["n", "volume_rel_err"],
    )
    hull_rows = []
    for n in HULL_SIZES:
        err = run_hull(n)
        hull_rows.append(err)
        t2.add(n, err)
    save_table(t2, "e9b_hullmerge")
    return sep_rows, hull_rows


def test_e9_shape(e9_tables, benchmark):
    sep_rows, hull_rows = e9_tables
    for res, want in sep_rows:
        if res.decided:
            assert res.separated == want
    # decisive on the clear cases at both ends
    assert sep_rows[0][0].decided and not sep_rows[0][0].separated
    assert sep_rows[-1][0].decided and sep_rows[-1][0].separated
    for err in hull_rows:
        assert err < 1e-9
    benchmark(run_hull, 200)
