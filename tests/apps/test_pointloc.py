"""Tests for the point-location application (E7)."""

import numpy as np
import pytest

from repro.apps.pointloc import final_vertices, locate_points_mesh
from repro.bench.workloads import uniform_sites
from repro.core.model import STOP, QuerySet
from repro.geometry.primitives import point_in_triangle
from repro.util.rng import make_rng


def test_final_vertices_are_the_last_path_vertices():
    qs = QuerySet.start(np.zeros((4, 2)), [0, 0, 0, STOP], record_trace=True)
    qs.trace.append(np.array([5, STOP, 7, STOP]))
    qs.trace.append(np.array([5, STOP, 9, STOP]))
    want = [p[-1] if p else -1 for p in qs.paths()]
    assert final_vertices(qs).tolist() == want == [5, 0, 9, -1]


class TestLocatePointsMesh:
    @pytest.mark.parametrize("method", ["hierdag", "baseline"])
    def test_answers_verified_geometrically(self, method):
        sites = uniform_sites(150, seed=0)
        q = make_rng(1).uniform(0, 100, (200, 2))
        run = locate_points_mesh(sites, q, seed=2, method=method)
        pts = run.hierarchy.points
        tris = run.hierarchy.base_triangles
        assert (run.triangle >= 0).all()
        for p, t in zip(q, run.triangle):
            assert point_in_triangle(p, pts[tris[t, 0]], pts[tris[t, 1]], pts[tris[t, 2]])

    def test_methods_agree(self):
        sites = uniform_sites(100, seed=3)
        q = make_rng(4).uniform(0, 100, (100, 2))
        a = locate_points_mesh(sites, q, seed=5, method="hierdag")
        b = locate_points_mesh(sites, q, seed=5, method="baseline")
        assert (a.triangle == b.triangle).all()

    def test_matches_sequential_locate(self):
        sites = uniform_sites(80, seed=6)
        q = make_rng(7).uniform(0, 100, (60, 2))
        run = locate_points_mesh(sites, q, seed=8)
        seq = run.hierarchy.locate(q)
        pts = run.hierarchy.points
        tris = run.hierarchy.base_triangles
        # same triangle unless the point sits on an edge; compare by
        # containment of both answers
        for p, t1, t2 in zip(q, run.triangle, seq):
            for t in (t1, t2):
                assert point_in_triangle(p, pts[tris[t, 0]], pts[tris[t, 1]], pts[tris[t, 2]])

    def test_outside_points_get_minus_one(self):
        sites = uniform_sites(50, seed=9)
        q = np.array([[1e9, 1e9], [50.0, 50.0]])
        run = locate_points_mesh(sites, q, seed=10)
        assert run.triangle[0] == -1
        assert run.triangle[1] >= 0

    def test_mesh_steps_positive_and_recorded(self):
        sites = uniform_sites(60, seed=11)
        q = make_rng(12).uniform(0, 100, (30, 2))
        run = locate_points_mesh(sites, q, seed=13)
        assert run.mesh_steps > 0
        assert run.dag_size > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            locate_points_mesh(uniform_sites(20, seed=14), np.zeros((1, 2)), method="x")
