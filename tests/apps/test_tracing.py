"""Tracing gates for the application drivers (E6-E9).

Every driver must (a) produce byte-identical results and identical mesh
step counts whether span tracing is enabled or not — tracing is pure
observation — and (b) emit a non-empty span tree containing its
documented phase names when tracing is on.
"""

import numpy as np
import pytest

from repro.apps.hullmerge import convex_hull_divide_conquer
from repro.apps.interval_search import (
    count_intersections_mesh,
    report_intersections_mesh,
    setup_interval_search,
)
from repro.apps.linepoly import line_polyhedron_queries
from repro.apps.pointloc import locate_faces_mesh, locate_points_mesh
from repro.apps.separation import separate_polyhedra
from repro.bench.workloads import random_intervals, random_lines, sphere_points
from repro.geometry.dk3d import build_dk_hierarchy
from repro.mesh.trace import drain_traced_tracers
from repro.util.rng import make_rng


def _span_names(tracers):
    names = set()

    def walk(span):
        names.add(span.name)
        for child in span.children:
            walk(child)

    for tracer in tracers:
        walk(tracer.root)
    return names


def _traced(monkeypatch, fn):
    """Run ``fn`` under REPRO_TRACE; return (result, drained tracers)."""
    drain_traced_tracers()
    monkeypatch.setenv("REPRO_TRACE", "1")
    try:
        result = fn()
    finally:
        monkeypatch.delenv("REPRO_TRACE")
    return result, drain_traced_tracers()


class TestE6LinePoly:
    def _run(self):
        hier = build_dk_hierarchy(sphere_points(120, seed=0), seed=1)
        p0, d = random_lines(40, seed=3)
        return line_polyhedron_queries(hier, p0, d)

    def test_tracing_changes_nothing(self, monkeypatch):
        plain = self._run()
        traced_run, tracers = _traced(monkeypatch, self._run)
        assert traced_run.intersects.tobytes() == plain.intersects.tobytes()
        assert traced_run.tangent_left.tobytes() == plain.tangent_left.tobytes()
        assert traced_run.tangent_right.tobytes() == plain.tangent_right.tobytes()
        assert traced_run.planes.tobytes() == plain.planes.tobytes()
        assert traced_run.mesh_steps == plain.mesh_steps
        assert tracers  # and the traced run did record spans

    def test_documented_phases_present(self, monkeypatch):
        _, tracers = _traced(monkeypatch, self._run)
        names = _span_names(tracers)
        assert {"linepoly:structure", "linepoly:search", "linepoly:verify"} <= names
        # construction spans from the geometry layer ride along
        assert {"dk3d:build", "dk3d:base-hull", "hull3d:build"} <= names

    def test_span_steps_equal_driver_steps(self, monkeypatch):
        run, tracers = _traced(monkeypatch, self._run)
        # engine-clock tracers account every charged step exactly; the
        # driver's own mesh_steps is the search phase's clock window
        total = sum(t.total_steps for t in tracers)
        assert total >= run.mesh_steps > 0


class TestE7PointLocation:
    def _run(self):
        rng = make_rng(0)
        sites = rng.uniform(0.0, 1.0, (60, 2))
        queries = rng.uniform(0.1, 0.9, (50, 2))
        return locate_points_mesh(sites, queries, seed=1)

    def _run_faces(self):
        rng = make_rng(2)
        sites = rng.uniform(0.0, 1.0, (50, 2))
        queries = rng.uniform(0.1, 0.9, (40, 2))
        return locate_faces_mesh(sites, queries, seed=1)

    def test_tracing_changes_nothing(self, monkeypatch):
        plain = self._run()
        traced_run, tracers = _traced(monkeypatch, self._run)
        assert traced_run.triangle.tobytes() == plain.triangle.tobytes()
        assert traced_run.mesh_steps == plain.mesh_steps
        assert tracers

    def test_documented_phases_present(self, monkeypatch):
        _, tracers = _traced(monkeypatch, self._run)
        names = _span_names(tracers)
        assert {"pointloc:build", "pointloc:structure", "pointloc:search",
                "pointloc:finalize"} <= names
        assert {"kirkpatrick:build", "kirkpatrick:delaunay",
                "kirkpatrick:round", "kirkpatrick:structure",
                "triangulate:ear-clip"} <= names

    def test_face_location_phases(self, monkeypatch):
        plain = self._run_faces()
        traced_run, tracers = _traced(monkeypatch, self._run_faces)
        assert traced_run.face.tobytes() == plain.face.tobytes()
        assert traced_run.mesh_steps == plain.mesh_steps
        names = _span_names(tracers)
        assert {"pointloc:subdivision", "subdivision:merge-faces"} <= names


class TestE8Intervals:
    def _data(self):
        lefts, rights = random_intervals(200, seed=0, domain=100.0, mean_len=6.0)
        rng = make_rng(1)
        a = rng.uniform(0, 100, 40)
        b = a + rng.uniform(0.1, 15, 40)
        return lefts, rights, a, b

    def _run_count(self):
        lefts, rights, a, b = self._data()
        setup = setup_interval_search(lefts, rights)
        return count_intersections_mesh(setup, a, b)

    def _run_report(self):
        lefts, rights, a, b = self._data()
        setup = setup_interval_search(lefts, rights)
        return report_intersections_mesh(setup, a, b)

    def test_tracing_changes_nothing(self, monkeypatch):
        counts, steps = self._run_count()
        (tcounts, tsteps), tracers = _traced(monkeypatch, self._run_count)
        assert tcounts.tobytes() == counts.tobytes()
        assert tsteps == steps
        assert tracers

    def test_report_tracing_changes_nothing(self, monkeypatch):
        reports, steps = self._run_report()
        (treports, tsteps), tracers = _traced(monkeypatch, self._run_report)
        assert len(treports) == len(reports)
        for got, want in zip(treports, reports):
            assert got.tobytes() == want.tobytes()
        assert tsteps == steps
        assert tracers

    def test_documented_phases_present(self, monkeypatch):
        _, tracers = _traced(monkeypatch, self._run_count)
        names = _span_names(tracers)
        assert {"intervals:setup", "intervals:count",
                "intervals:count:rank-le-b", "intervals:count:rank-lt-a"} <= names
        _, tracers = _traced(monkeypatch, self._run_report)
        names = _span_names(tracers)
        assert {"intervals:report", "intervals:report:range-walk",
                "intervals:report:stab", "intervals:report:collect"} <= names


class TestE9HullsAndSeparation:
    def _run_separation(self):
        A = sphere_points(100, seed=0)
        B = sphere_points(100, seed=1000, center=(3.0, 0.0, 0.0))
        ha = build_dk_hierarchy(A, seed=1)
        hb = build_dk_hierarchy(B, seed=2)
        return separate_polyhedra(ha, hb)

    def _run_hullmerge(self):
        return convex_hull_divide_conquer(sphere_points(150, seed=5), leaf_size=40)

    def test_separation_tracing_changes_nothing(self, monkeypatch):
        plain = self._run_separation()
        traced_run, tracers = _traced(monkeypatch, self._run_separation)
        assert traced_run.separated == plain.separated
        assert traced_run.iterations == plain.iterations
        assert traced_run.plane.tobytes() == plain.plane.tobytes()
        assert "separation:frank-wolfe" in _span_names(tracers)

    def test_tangent_cones_tracing_changes_nothing(self, monkeypatch):
        from repro.apps.tangent import tangent_cones
        from repro.geometry.hull3d import convex_hull_3d

        def run():
            hull = convex_hull_3d(sphere_points(80, seed=7))
            queries = sphere_points(10, seed=9) * 3.0
            return tangent_cones(hull, queries)

        plain = run()
        traced_cones, tracers = _traced(monkeypatch, run)
        assert len(traced_cones) == len(plain)
        for got, want in zip(traced_cones, plain):
            assert got.inside == want.inside
            assert got.planes.tobytes() == want.planes.tobytes()
            assert got.contacts.tobytes() == want.contacts.tobytes()
        assert "tangent:cones" in _span_names(tracers)

    def test_hullmerge_tracing_changes_nothing(self, monkeypatch):
        plain = self._run_hullmerge()
        traced_run, tracers = _traced(monkeypatch, self._run_hullmerge)
        assert traced_run.faces.tobytes() == plain.faces.tobytes()
        assert traced_run.volume() == plain.volume()
        names = _span_names(tracers)
        assert {"hullmerge:divide", "hullmerge:merge", "hullmerge:filter",
                "hullmerge:hull"} <= names
        assert {"hull3d:build", "hull3d:simplex", "hull3d:insert"} <= names
