"""Tests for ear-clipping triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import orient2d
from repro.geometry.triangulate import ear_clip, ear_clip_many, signed_area2
from repro.mesh.construct import Construction
from repro.mesh.trace import Tracer
from tests.conftest import RecordingTracer


def total_area(polygon: np.ndarray, tris: np.ndarray) -> float:
    s = 0.0
    for a, b, c in tris:
        s += orient2d(polygon[a], polygon[b], polygon[c]) / 2
    return s


def polygon_area(polygon: np.ndarray) -> float:
    x, y = polygon[:, 0], polygon[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestEarClip:
    def test_triangle(self):
        poly = np.array([[0, 0], [1, 0], [0, 1]], float)
        tris = ear_clip(poly)
        assert tris.shape == (1, 3)

    def test_square(self):
        poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        tris = ear_clip(poly)
        assert tris.shape == (2, 3)
        assert total_area(poly, tris) == pytest.approx(1.0)

    def test_convex_polygon(self):
        theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        poly = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        tris = ear_clip(poly)
        assert tris.shape == (10, 3)
        assert total_area(poly, tris) == pytest.approx(polygon_area(poly))

    def test_nonconvex_star(self):
        outer = np.stack(
            [2 * np.cos(np.linspace(0, 2 * np.pi, 5, endpoint=False)),
             2 * np.sin(np.linspace(0, 2 * np.pi, 5, endpoint=False))], axis=1
        )
        inner = np.stack(
            [0.7 * np.cos(np.linspace(0, 2 * np.pi, 5, endpoint=False) + np.pi / 5),
             0.7 * np.sin(np.linspace(0, 2 * np.pi, 5, endpoint=False) + np.pi / 5)],
            axis=1,
        )
        poly = np.empty((10, 2))
        poly[0::2] = outer
        poly[1::2] = inner
        tris = ear_clip(poly)
        assert tris.shape == (8, 3)
        assert total_area(poly, tris) == pytest.approx(polygon_area(poly))

    def test_all_triangles_ccw(self):
        theta = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        poly = np.stack([np.cos(theta), 2 * np.sin(theta)], axis=1)
        for a, b, c in ear_clip(poly):
            assert orient2d(poly[a], poly[b], poly[c]) > 0

    def test_cw_polygon_rejected(self):
        poly = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], float)
        with pytest.raises(ValueError, match="counter-clockwise"):
            ear_clip(poly)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            ear_clip(np.array([[0, 0], [1, 0]], float))

    def test_random_star_shaped_holes(self):
        # the shapes Kirkpatrick produces: links of removed vertices
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(4, 9))
            radii = rng.uniform(0.5, 2.0, k)
            theta = np.sort(rng.uniform(0, 2 * np.pi, k))
            gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * np.pi]]))
            # simple (star-shaped around the origin) only if the origin is
            # interior: all angular gaps below pi
            if np.min(gaps) < 0.1 or np.max(gaps) >= np.pi - 0.1:
                continue
            poly = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
            tris = ear_clip(poly)
            assert tris.shape[0] == k - 2
            assert total_area(poly, tris) == pytest.approx(polygon_area(poly))


def _sequential_ear_clip(polygon: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Reference: one polygon, one ear at a time, in plain Python loops."""
    k = polygon.shape[0]
    area2 = 0.0
    for i in range(k):  # in vertex order, as signed_area2 sums
        (x0, y0), (x1, y1) = polygon[i], polygon[(i + 1) % k]
        area2 += x0 * y1 - x1 * y0
    if area2 <= 0:
        raise ValueError("polygon must be counter-clockwise with positive area")
    idx = list(range(k))
    triangles = []
    while len(idx) > 3:
        m = len(idx)
        for i in range(m):
            a_i, b_i, c_i = idx[(i - 1) % m], idx[i], idx[(i + 1) % m]
            a, b, c = polygon[a_i], polygon[b_i], polygon[c_i]
            if orient2d(a, b, c) <= eps:
                continue
            if any(
                orient2d(polygon[j], a, b) > eps
                and orient2d(polygon[j], b, c) > eps
                and orient2d(polygon[j], c, a) > eps
                for j in idx
                if j not in (a_i, b_i, c_i)
            ):
                continue
            triangles.append((a_i, b_i, c_i))
            idx.pop(i)
            break
        else:
            raise ValueError("ear clipping stuck: degenerate polygon")
    triangles.append((idx[0], idx[1], idx[2]))
    return np.array(triangles, dtype=np.int64)


@st.composite
def _polygons(draw):
    """Star-shaped polygons with reflex vertices, some clockwise, some
    degenerate (collinear, or with a repeated vertex)."""
    k = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = np.sort(rng.uniform(0, 2 * np.pi, k))
    radii = rng.uniform(0.2, 2.0, k)
    poly = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    kind = draw(st.sampled_from(["star", "star", "cw", "collinear", "repeat"]))
    if kind == "cw":
        poly = poly[::-1].copy()
    elif kind == "collinear":
        poly[:, 1] = 0.5 * poly[:, 0]
    elif kind == "repeat":
        poly[rng.integers(k)] = poly[rng.integers(k)]
    return poly


def _clip_or_error(clip, *args):
    try:
        return clip(*args)
    except ValueError:
        return "ValueError"


class TestLockstepMatchesSequential:
    @given(st.lists(_polygons(), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_per_polygon_reference(self, polys):
        want = [_clip_or_error(_sequential_ear_clip, p) for p in polys]
        for p, w in zip(polys, want):
            got = _clip_or_error(ear_clip, p)
            if isinstance(w, str):
                assert got == w
            else:
                assert got.dtype == w.dtype and got.tobytes() == w.tobytes()
        sizes = [p.shape[0] for p in polys]
        padded = np.zeros((len(polys), max(sizes), 2))
        for h, p in enumerate(polys):
            padded[h, : sizes[h]] = p
        got = _clip_or_error(ear_clip_many, padded, sizes)
        if any(isinstance(w, str) for w in want):
            # one unclippable polygon fails the whole batch
            assert got == "ValueError"
        else:
            assert got.tobytes() == np.concatenate(want).tobytes()

    def test_zero_area_polygon_refused_alone_and_in_a_batch(self):
        # a repeated vertex gives zero area; its shoelace sum rounds to
        # -2.2e-16, and a padding-dependent summation used to read 0.0
        # (accepted) when it was batched next to an 8-gon
        zero = np.array(
            [[1.4717, 1.2719], [-0.4864, 0.5771], [-1.2310, 0.3095], [-0.4864, 0.5771]]
        )
        theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        octagon = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        padded = np.zeros((2, 8, 2))
        padded[0, :4] = zero
        padded[1] = octagon
        alone = signed_area2(zero[None], [4])[0]
        assert signed_area2(padded, [4, 8])[0] == alone
        with pytest.raises(ValueError, match="positive area"):
            ear_clip(zero)
        with pytest.raises(ValueError, match="positive area"):
            ear_clip_many(padded, [4, 8])
        assert ear_clip_many(padded[1:], [8]).shape == (6, 3)

    def test_degenerate_polygons_raise(self):
        line = np.stack([np.arange(5.0), np.arange(5.0)], axis=1)
        with pytest.raises(ValueError, match="positive area"):
            ear_clip(line)
        # positive area, but every ear is thinner than eps
        sliver = np.array([[0, 0], [1, 0], [2, 0], [3, 0], [1.5, 1e-14]])
        with pytest.raises(ValueError, match="stuck"):
            ear_clip(sliver)
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        padded = np.zeros((2, 5, 2))
        padded[0, :4] = square
        padded[1] = sliver
        with pytest.raises(ValueError, match="stuck"):
            ear_clip_many(padded, [4, 5])
        padded[1] = line
        with pytest.raises(ValueError, match="positive area"):
            ear_clip_many(padded, [4, 5])
        with pytest.raises(ValueError, match="counter-clockwise"):
            ear_clip_many(padded[:, ::-1], [5, 5])
        with pytest.raises(ValueError, match=">= 3 vertices"):
            ear_clip_many(padded, [4, 2])


def _padded_regular_polygons(sizes):
    """Regular ``k``-gons (CCW), zero-padded to the largest ``k``."""
    padded = np.zeros((len(sizes), max(sizes, default=3), 2))
    for h, k in enumerate(sizes):
        ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
        padded[h, :k] = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return padded


class TestLockstepCharge:
    """A lockstep round clips every polygon at once on disjoint submeshes,
    so it is charged once, for its largest polygon, in one span."""

    @pytest.mark.parametrize(
        "sizes", [[3], [4, 4], [5, 3, 7], [9, 4, 6, 3]],
        ids=["one", "equal", "three", "four"],
    )
    def test_round_charges_its_largest_polygon_once(self, sizes):
        c = Construction(64)
        tracer = RecordingTracer(clock=c.clock)
        ear_clip_many(_padded_regular_polygons(sizes), sizes, construct=c)
        want = c.clock.cost.local * max(sizes)
        assert c.steps == want
        assert tracer.charges == [("construct:local", want)]
        (span,) = tracer.root.children
        assert span.name == "triangulate:ear-clip"
        assert span.steps_total == tracer.total_steps == c.clock.time

    def test_empty_batch_charges_nothing(self):
        c = Construction(64)
        tracer = Tracer(clock=c.clock)
        tris = ear_clip_many(np.zeros((0, 3, 2)), [], construct=c)
        assert tris.shape == (0, 3)
        assert c.steps == 0.0
        assert tracer.root.children == []

    def test_charge_is_the_largest_single_polygon_charge(self):
        sizes = [6, 3, 8, 5]
        alone = []
        for k in sizes:
            c = Construction(64)
            ear_clip(_padded_regular_polygons([k])[0], construct=c)
            alone.append(c.steps)
        c = Construction(64)
        ear_clip_many(_padded_regular_polygons(sizes), sizes, construct=c)
        assert c.steps == max(alone)

    def test_charge_independent_of_batch_order(self):
        sizes = [7, 3, 5]
        steps = []
        for order in (sizes, sizes[::-1], sorted(sizes)):
            c = Construction(64)
            ear_clip_many(_padded_regular_polygons(order), order, construct=c)
            steps.append(c.steps)
        assert steps[0] == steps[1] == steps[2]

    def test_triangles_independent_of_construction(self):
        sizes = [5, 8, 3]
        polys = _padded_regular_polygons(sizes)
        bare = ear_clip_many(polys, sizes)
        counted = ear_clip_many(polys, sizes, construct=Construction(64))
        assert counted.dtype == bare.dtype
        assert counted.tobytes() == bare.tobytes()
