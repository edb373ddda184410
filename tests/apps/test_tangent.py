"""Tests for multiple tangent plane determination."""

import numpy as np
import pytest

from repro.apps.tangent import tangent_cones
from repro.bench.workloads import sphere_points
from repro.geometry.hull3d import convex_hull_3d


@pytest.fixture(scope="module")
def hull():
    return convex_hull_3d(sphere_points(200, seed=0))


class TestTangentCones:
    def test_inside_points_have_empty_cones(self, hull):
        rng = np.random.default_rng(1)
        q = rng.normal(scale=0.2, size=(20, 3))  # deep inside the unit sphere
        cones = tangent_cones(hull, q)
        assert all(c.inside and c.planes.shape[0] == 0 for c in cones)

    def test_outside_points_have_nonempty_cones(self, hull):
        q = sphere_points(20, seed=2, radius=3.0)
        cones = tangent_cones(hull, q)
        assert all((not c.inside) and c.planes.shape[0] >= 3 for c in cones)

    def test_planes_pass_through_query(self, hull):
        q = sphere_points(10, seed=3, radius=2.5)
        for point, cone in zip(q, tangent_cones(hull, q)):
            d = cone.planes[:, :3] @ point - cone.planes[:, 3]
            assert np.abs(d).max() < 1e-9

    def test_planes_support_the_hull(self, hull):
        q = sphere_points(10, seed=4, radius=2.5)
        V = hull.points[hull.vertices]
        for cone in tangent_cones(hull, q):
            for nrm_off in cone.planes:
                side = V @ nrm_off[:3] - nrm_off[3]
                assert (side <= 1e-7).all()

    def test_contacts_lie_on_their_plane(self, hull):
        q = sphere_points(5, seed=5, radius=4.0)
        for cone in tangent_cones(hull, q):
            for (u, v), nrm_off in zip(cone.contacts, cone.planes):
                for w in (u, v):
                    assert abs(hull.points[w] @ nrm_off[:3] - nrm_off[3]) < 1e-7

    def test_contacts_are_hull_edges(self, hull):
        q = sphere_points(5, seed=6, radius=3.0)
        edges = {tuple(sorted(e)) for e in hull.edges().tolist()}
        for cone in tangent_cones(hull, q):
            for u, v in cone.contacts:
                assert (min(u, v), max(u, v)) in edges

    def test_horizon_is_a_cycle(self, hull):
        # each horizon vertex appears in exactly two contact edges
        q = sphere_points(5, seed=7, radius=3.0)
        for cone in tangent_cones(hull, q):
            counts: dict[int, int] = {}
            for u, v in cone.contacts:
                counts[int(u)] = counts.get(int(u), 0) + 1
                counts[int(v)] = counts.get(int(v), 0) + 1
            assert all(c == 2 for c in counts.values())

    def test_boundaryish_point(self, hull):
        # a point just outside one face has a small cone
        f = 0
        center = hull.points[hull.faces[f]].mean(axis=0)
        q = center + 0.05 * hull.normals[f]
        (cone,) = tangent_cones(hull, q[None, :])
        assert not cone.inside
        assert cone.planes.shape[0] >= 3


def _contact_edges(cone) -> set:
    return {(min(u, v), max(u, v)) for u, v in cone.contacts.tolist()}


class TestScaleFree:
    """Tolerances are relative to the hull's coordinate scale: shrinking
    hull and queries together changes no answer.  An absolute 1e-9 fails
    here: it calls 7 of these 50 exterior queries inside at scale 1e-9
    and changes contact edges at 1e-6 and 1e-8."""

    @pytest.mark.parametrize("factor", [1e-6, 1e-8, 1e-9])
    def test_scaled_copy_gives_the_same_cones(self, factor):
        pts = sphere_points(200, seed=0)
        q = sphere_points(50, seed=11, radius=2.0)
        ref = tangent_cones(convex_hull_3d(pts), q)
        hull = convex_hull_3d(pts * factor)
        got = tangent_cones(hull, q * factor)
        assert [c.inside for c in got] == [c.inside for c in ref] == [False] * 50
        assert [_contact_edges(c) for c in got] == [_contact_edges(c) for c in ref]
        assert not hull.contains(q * factor).any()
        assert hull.contains(pts * factor).all()
