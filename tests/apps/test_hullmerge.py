"""Tests for 3-d hull merging and divide-and-conquer construction (E9)."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from repro.apps.hullmerge import convex_hull_divide_conquer, merge_hulls
from repro.bench.workloads import sphere_points
from repro.geometry.hull3d import convex_hull_3d


class TestMergeHulls:
    def test_volume_matches_union_hull(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(200, 3))
        Q = rng.normal(size=(200, 3)) + 1.5
        merged = merge_hulls(convex_hull_3d(P), convex_hull_3d(Q))
        ref = ConvexHull(np.vstack([P, Q]))
        assert merged.volume() == pytest.approx(ref.volume, rel=1e-9)

    def test_contains_both_inputs(self):
        P = sphere_points(100, seed=3)
        Q = sphere_points(100, seed=4, center=(0.5, 0.5, 0.0))
        merged = merge_hulls(convex_hull_3d(P), convex_hull_3d(Q))
        assert merged.contains(np.vstack([P, Q])).all()

    def test_nested_hulls(self):
        P = sphere_points(80, seed=5, radius=2.0)
        Q = sphere_points(80, seed=6, radius=0.3)
        h1 = convex_hull_3d(P)
        merged = merge_hulls(h1, convex_hull_3d(Q))
        assert merged.volume() == pytest.approx(h1.volume(), rel=1e-9)

    def test_disjoint_hulls(self):
        P = sphere_points(60, seed=7)
        Q = sphere_points(60, seed=8, center=(10.0, 0, 0))
        merged = merge_hulls(convex_hull_3d(P), convex_hull_3d(Q))
        ref = ConvexHull(np.vstack([P, Q]))
        assert merged.volume() == pytest.approx(ref.volume, rel=1e-9)

    def test_interior_filter_drops_contained_vertices(self):
        P = sphere_points(80, seed=9, radius=2.0)
        Q = sphere_points(80, seed=10, radius=0.3)
        merged = merge_hulls(convex_hull_3d(P), convex_hull_3d(Q))
        # all of Q is interior: merged hull uses only P's points
        assert merged.points.shape[0] == 80


class TestDivideConquer:
    @pytest.mark.parametrize("n,leaf", [(100, 16), (300, 32), (500, 64)])
    def test_matches_scipy(self, n, leaf):
        pts = np.random.default_rng(n).normal(size=(n, 3))
        ours = convex_hull_divide_conquer(pts, leaf_size=leaf)
        ref = ConvexHull(pts)
        assert ours.volume() == pytest.approx(ref.volume, rel=1e-9)
        assert ours.contains(pts).all()

    def test_small_input_uses_leaf_path(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        ours = convex_hull_divide_conquer(pts, leaf_size=32)
        assert ours.volume() == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    def test_sphere_input(self):
        pts = sphere_points(400, seed=2)
        ours = convex_hull_divide_conquer(pts, leaf_size=50)
        ref = ConvexHull(pts)
        assert ours.volume() == pytest.approx(ref.volume, rel=1e-9)


@pytest.mark.parametrize("factor", [1e-6, 1e-9])
def test_merge_filter_is_scale_free(factor):
    """The inclusion filter's tolerance scales with the hulls: a tiny
    copy drops exactly the vertices the unit-scale merge drops."""
    P = sphere_points(80, seed=9, radius=2.0)
    Q = sphere_points(80, seed=12, radius=1.0, center=(2.0, 0.0, 0.0))
    ref = merge_hulls(convex_hull_3d(P), convex_hull_3d(Q))
    got = merge_hulls(convex_hull_3d(P * factor), convex_hull_3d(Q * factor))
    np.testing.assert_array_equal(got.points, ref.points * factor)
    np.testing.assert_array_equal(got.vertices, ref.vertices)
