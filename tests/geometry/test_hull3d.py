"""Tests for the 3-d convex hull."""

import numpy as np
import pytest

from repro.bench.workloads import sphere_points
from repro.geometry.hull3d import convex_hull_3d


def assert_watertight(hull) -> None:
    e = np.concatenate(
        [hull.faces[:, [0, 1]], hull.faces[:, [1, 2]], hull.faces[:, [2, 0]]]
    )
    e.sort(axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    assert (counts == 2).all()


def assert_valid_hull(hull) -> None:
    """The hull's defining properties, checked directly on its output."""
    pts = hull.points
    tol = 1e-12 * np.abs(pts).max()
    # every input point lies beneath every face plane
    assert (pts @ hull.normals.T - hull.offsets <= tol).all()
    # every edge belongs to exactly two faces
    assert_watertight(hull)
    # each face's winding agrees with its outward normal
    a, b, c = (pts[hull.faces[:, k]] for k in range(3))
    assert (np.einsum("ij,ij->i", np.cross(b - a, c - a), hull.normals) > 0).all()
    # Euler's formula for a closed genus-0 surface
    V, E, F = hull.vertices.size, hull.edges().shape[0], hull.faces.shape[0]
    assert V - E + F == 2


def cube_surface(k: int) -> np.ndarray:
    """The points of a k x k x k grid on the unit cube's surface."""
    g = np.linspace(0.0, 1.0, k)
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[((grid == 0.0) | (grid == 1.0)).any(axis=1)]


class TestClouds:
    @pytest.mark.parametrize("n,seed", [(8, 0), (30, 1), (100, 2), (500, 3)])
    def test_gaussian_clouds(self, n, seed):
        assert_valid_hull(convex_hull_3d(np.random.default_rng(seed).normal(size=(n, 3))))

    def test_sphere_points_all_on_hull(self):
        pts = sphere_points(200, seed=4)
        ours = convex_hull_3d(pts)
        assert ours.vertices.size == 200


class TestScaleFree:
    """Flatness and degeneracy are judged relative to the input's extent."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_cube_face_grid_has_only_the_corners(self, k):
        h = convex_hull_3d(cube_surface(k))
        assert h.vertices.size == 8
        assert h.faces.shape[0] == 12
        assert h.volume() == pytest.approx(1.0)
        assert_valid_hull(h)

    @pytest.mark.parametrize("scale", [1e-8, 1e-10])
    def test_small_scale_keeps_the_vertex_set(self, scale):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        want = convex_hull_3d(pts).vertices
        assert want.size == 14
        np.testing.assert_array_equal(convex_hull_3d(pts * scale).vertices, want)

    def test_qhull_failure_is_a_value_error(self):
        pts = np.random.default_rng(1).normal(size=(50, 3))
        with pytest.raises(ValueError, match="Qhull rejected"):
            convex_hull_3d(pts * 1e100)


class TestInvariants:
    def test_watertight(self):
        pts = np.random.default_rng(6).normal(size=(150, 3))
        assert_watertight(convex_hull_3d(pts))

    def test_all_points_inside(self):
        pts = np.random.default_rng(7).normal(size=(150, 3))
        h = convex_hull_3d(pts)
        assert h.contains(pts).all()

    def test_normals_outward(self):
        pts = sphere_points(80, seed=8)
        h = convex_hull_3d(pts)
        centroid = pts.mean(axis=0)
        assert (h.normals @ centroid - h.offsets < 0).all()

    def test_euler_formula(self):
        pts = sphere_points(120, seed=9)
        h = convex_hull_3d(pts)
        V = h.vertices.size
        F = h.faces.shape[0]
        E = h.edges().shape[0]
        assert V - E + F == 2

    def test_support_is_extreme(self):
        pts = np.random.default_rng(10).normal(size=(100, 3))
        h = convex_hull_3d(pts)
        for d in np.random.default_rng(11).normal(size=(20, 3)):
            s = h.support(d)
            assert pts[s] @ d == pytest.approx((pts @ d).max())

    def test_contains_distinguishes(self):
        pts = sphere_points(100, seed=12)
        h = convex_hull_3d(pts)
        assert h.contains(np.zeros((1, 3)))[0]
        assert not h.contains(np.array([[2.0, 0.0, 0.0]]))[0]


class TestDegenerate:
    def test_simplex(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
        h = convex_hull_3d(pts)
        assert h.faces.shape[0] == 4
        assert h.volume() == pytest.approx(1 / 6)

    def test_interior_points_excluded(self):
        pts = np.vstack(
            [sphere_points(30, seed=13), np.random.default_rng(14).normal(scale=0.1, size=(30, 3))]
        )
        h = convex_hull_3d(pts)
        assert set(h.vertices) == set(range(30))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            convex_hull_3d(np.zeros((3, 3)))

    def test_coplanar_rejected(self):
        pts = np.zeros((10, 3))
        pts[:, :2] = np.random.default_rng(15).normal(size=(10, 2))
        with pytest.raises(ValueError, match="coplanar"):
            convex_hull_3d(pts)

    def test_collinear_rejected(self):
        pts = np.outer(np.arange(5, dtype=float), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="collinear"):
            convex_hull_3d(pts)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            convex_hull_3d(np.ones((5, 3)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            convex_hull_3d(np.zeros((5, 2)))
