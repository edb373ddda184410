"""Tests for the bench harness support (workloads)."""

import numpy as np

from repro.bench.workloads import (
    random_intervals,
    random_lines,
    sphere_points,
    uniform_sites,
)


class TestWorkloads:
    def test_sphere_points_on_sphere(self):
        pts = sphere_points(100, seed=0, center=(1, 2, 3), radius=2.5)
        d = np.linalg.norm(pts - np.array([1.0, 2.0, 3.0]), axis=1)
        assert np.allclose(d, 2.5)

    def test_sphere_points_deterministic(self):
        assert (sphere_points(10, seed=1) == sphere_points(10, seed=1)).all()

    def test_uniform_sites_in_box(self):
        pts = uniform_sites(50, seed=2, box=10.0)
        assert pts.shape == (50, 2)
        assert (pts >= 0).all() and (pts <= 10).all()

    def test_random_lines_shapes(self):
        p0, d = random_lines(20, seed=3)
        assert p0.shape == (20, 3) and d.shape == (20, 3)
        assert (np.linalg.norm(d, axis=1) > 0).all()

    def test_random_intervals_valid(self):
        lefts, rights = random_intervals(100, seed=4)
        assert (lefts <= rights).all()
        assert (lefts >= 0).all()

