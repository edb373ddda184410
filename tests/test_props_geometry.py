"""Property-based tests for the geometry substrates."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry.hull3d import convex_hull_3d
from repro.geometry.primitives import orient2d, point_in_triangle, triangles_overlap
from repro.geometry.triangulate import ear_clip

finite = st.floats(-100, 100, allow_nan=False)
point2 = st.tuples(finite, finite)


class TestPredicates:
    @given(point2, point2, point2)
    @settings(max_examples=100, deadline=None)
    def test_orient_antisymmetric(self, a, b, c):
        a, b, c = map(np.array, (a, b, c))
        assert orient2d(a, b, c) == -orient2d(a, c, b)

    @given(point2, point2, point2)
    @settings(max_examples=100, deadline=None)
    def test_orient_cyclic_invariance(self, a, b, c):
        a, b, c = map(np.array, (a, b, c))
        v = orient2d(a, b, c)
        assert orient2d(b, c, a) == pytest.approx(v, abs=1e-6)

    @given(point2, point2, point2, st.floats(0.01, 0.98), st.floats(0.01, 0.98))
    @settings(max_examples=100, deadline=None)
    def test_convex_combination_is_inside(self, a, b, c, u, v):
        a, b, c = map(np.array, (a, b, c))
        assume(abs(orient2d(a, b, c)) > 1e-3)
        w1, w2 = u, (1 - u) * v
        w3 = 1 - w1 - w2
        assume(w3 > 0.01)
        p = w1 * a + w2 * b + w3 * c
        assert point_in_triangle(p, a, b, c, eps=1e-9)

    @given(point2, point2, point2)
    @settings(max_examples=50, deadline=None)
    def test_triangle_overlaps_itself(self, a, b, c):
        tri = np.array([a, b, c])
        assume(abs(orient2d(tri[0], tri[1], tri[2])) > 1e-3)
        assert triangles_overlap(tri, tri)


class TestEarClipProperty:
    @given(
        st.integers(4, 10),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_star_shaped_polygons(self, k, seed):
        rng = np.random.default_rng(seed)
        theta = np.sort(rng.uniform(0, 2 * np.pi, k))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * np.pi]]))
        assume(np.min(gaps) > 0.15)
        # star-shapedness (hence simplicity) needs the origin inside the
        # polygon: no angular gap may reach pi
        assume(np.max(gaps) < np.pi - 0.1)
        radii = rng.uniform(0.5, 2.0, k)
        poly = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
        tris = ear_clip(poly)
        assert tris.shape == (k - 2, 3)
        # triangle areas sum to the polygon area and all are CCW
        areas = np.array(
            [orient2d(poly[a], poly[b], poly[c]) / 2 for a, b, c in tris]
        )
        assert (areas > 0).all()
        x, y = poly[:, 0], poly[:, 1]
        want = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert areas.sum() == pytest.approx(want, rel=1e-9)


class TestHullProperty:
    @given(st.integers(6, 60), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_faces_support_close_and_wind_outward(self, n, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        h = convex_hull_3d(pts)
        # every input point lies beneath every face plane
        assert (pts @ h.normals.T - h.offsets <= 1e-12 * np.abs(pts).max()).all()
        # every edge belongs to exactly two faces
        e = np.sort(np.concatenate([h.faces[:, [0, 1]], h.faces[:, [1, 2]], h.faces[:, [2, 0]]]), axis=1)
        assert (np.unique(e, axis=0, return_counts=True)[1] == 2).all()
        # each face's winding agrees with its outward normal
        a, b, c = (pts[h.faces[:, k]] for k in range(3))
        assert (np.einsum("ij,ij->i", np.cross(b - a, c - a), h.normals) > 0).all()

    @given(st.integers(6, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_hull_invariants(self, n, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        h = convex_hull_3d(pts)
        assert h.contains(pts).all()
        V, E, F = h.vertices.size, h.edges().shape[0], h.faces.shape[0]
        assert V - E + F == 2
