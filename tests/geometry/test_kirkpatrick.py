"""Tests for the Kirkpatrick subdivision hierarchy."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import uniform_sites
from repro.core.baseline import synchronous_multisearch
from repro.core.constrained import constrained_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import STOP, QuerySet, run_reference
from repro.core.splitters import splitting_from_labels
from repro.geometry.kirkpatrick import (
    MAX_CHILDREN,
    _child_mask,
    build_kirkpatrick,
    kirkpatrick_snapshot_arrays,
    kirkpatrick_structure,
    kirkpatrick_successor,
)
from repro.geometry.primitives import (
    orient2d,
    point_in_triangle,
    triangles_overlap,
    triangles_overlap_pairs,
)
from repro.mesh.construct import Construction
from repro.mesh.engine import MeshEngine


@pytest.fixture(scope="module")
def hier():
    return build_kirkpatrick(uniform_sites(120, seed=0), seed=1)


class TestConstruction:
    def test_coarsest_level_is_one_triangle(self, hier):
        assert hier.levels[-1].triangles.shape[0] == 1

    def test_levels_shrink_geometrically(self, hier):
        sizes = [lvl.triangles.shape[0] for lvl in hier.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        # constant-fraction removal => O(log n) levels
        assert len(sizes) <= 4 * np.log2(sizes[0]) + 8

    def test_level_areas_all_equal_bounding_triangle(self, hier):
        # every level triangulates the same region
        pts = hier.points
        areas = []
        for lvl in hier.levels:
            t = lvl.triangles
            a = orient2d(pts[t[:, 0]], pts[t[:, 1]], pts[t[:, 2]]) / 2
            assert (a > 0).all()  # CCW everywhere
            areas.append(float(a.sum()))
        assert np.allclose(areas, areas[0], rtol=1e-9)

    def test_children_bounded(self, hier):
        for lvl in hier.levels[1:]:
            assert np.diff(lvl.child_ptr).max() <= 10

    def test_children_cover_parent(self, hier):
        # a triangle's children must cover it: sample interior points
        rng = np.random.default_rng(2)
        pts = hier.points
        for li in range(1, len(hier.levels)):
            lvl = hier.levels[li]
            finer = hier.levels[li - 1].triangles
            for ti in rng.integers(0, lvl.triangles.shape[0], 5):
                t = lvl.triangles[ti]
                a, b, c = pts[t[0]], pts[t[1]], pts[t[2]]
                w = rng.dirichlet([1, 1, 1])
                p = w[0] * a + w[1] * b + w[2] * c
                if not point_in_triangle(p, a, b, c):
                    continue
                hit = any(
                    point_in_triangle(
                        p, pts[finer[ch][0]], pts[finer[ch][1]], pts[finer[ch][2]]
                    )
                    for ch in lvl.child_ids[lvl.child_ptr[ti] : lvl.child_ptr[ti + 1]]
                )
                assert hit

    def test_corner_vertices_never_removed(self, hier):
        n_corner = hier.points.shape[0] - 3
        for lvl in hier.levels:
            verts = set(lvl.triangles.ravel().tolist())
            assert {n_corner, n_corner + 1, n_corner + 2} <= verts


class TestLocate:
    def test_locate_agrees_with_brute(self, hier):
        rng = np.random.default_rng(3)
        q = rng.uniform(0, 100, (100, 2))
        fast = hier.locate(q)
        pts, tris = hier.points, hier.base_triangles
        for p, t in zip(q, fast):
            assert t >= 0
            assert point_in_triangle(p, pts[tris[t, 0]], pts[tris[t, 1]], pts[tris[t, 2]])

    def test_point_outside_bounding_triangle(self, hier):
        q = np.array([[1e9, 1e9]])
        assert hier.locate(q)[0] == -1
        assert hier.locate_brute(q)[0] == -1


class TestSearchStructure:
    def test_is_hierarchical_dag(self, hier):
        st, mu = kirkpatrick_structure(hier)
        assert mu > 1.0
        sizes = np.bincount(st.level)
        assert sizes[0] == 1
        assert (np.diff(sizes) > 0).all()
        # edges go one level down
        src = np.repeat(np.arange(st.n_vertices), st.adjacency.shape[1])
        dst = st.adjacency.ravel()
        live = dst >= 0
        assert (st.level[dst[live]] == st.level[src[live]] + 1).all()

    def test_multisearch_descent_locates(self, hier):
        st, _ = kirkpatrick_structure(hier)
        rng = np.random.default_rng(4)
        q = rng.uniform(0, 100, (50, 2))
        res = run_reference(st, q, 0)
        pts = hier.points
        L = len(hier.levels)
        sizes = [hier.levels[L - 1 - d].triangles.shape[0] for d in range(L)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        for p, path in zip(q, res.paths()):
            assert len(path) == L
            tri = hier.base_triangles[path[-1] - starts[L - 1]]
            assert point_in_triangle(p, pts[tri[0]], pts[tri[1]], pts[tri[2]])

    def test_outside_point_stops_at_root(self, hier):
        st, _ = kirkpatrick_structure(hier)
        res = run_reference(st, np.array([[1e9, 1e9]]), 0)
        assert res.paths()[0] == [0]


class TestSmallInputs:
    def test_few_sites(self):
        hier = build_kirkpatrick(uniform_sites(5, seed=5), seed=2)
        assert hier.levels[-1].triangles.shape[0] == 1
        q = uniform_sites(20, seed=6)
        got = hier.locate(q)
        assert (got >= 0).all()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_kirkpatrick(np.zeros((5, 3)))


def _reference_successor(h: int):
    """The descent tested one child slot at a time (the reference).

    A point that is not finite lies in no child, so its query stops.
    """

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        nxt = np.full(vid.shape[0], STOP, dtype=np.int64)
        internal = vlevel < h
        q = np.asarray(qkey)[internal]
        adj = vadjacency[internal]
        pl = vpayload[internal]
        mi = q.shape[0]
        chosen = np.full(mi, STOP, dtype=np.int64)
        undecided = np.isfinite(q).all(axis=1)
        for slot in range(MAX_CHILDREN):
            cand = adj[:, slot]
            tri = pl[:, 6 + 6 * slot : 12 + 6 * slot].reshape(mi, 3, 2)
            ok = (
                undecided
                & (cand >= 0)
                & point_in_triangle(q, tri[:, 0], tri[:, 1], tri[:, 2])
            )
            chosen[ok] = cand[ok]
            undecided &= ~ok
        nxt[internal] = chosen
        return nxt, qstate

    return successor


class TestSuccessor:
    """The broadcast child test picks exactly what a per-slot loop picks."""

    @staticmethod
    def _queries(hier, rng):
        pts = hier.points
        edge_mids = []
        for lvl in hier.levels:
            t = lvl.triangles
            for i, j in ((0, 1), (1, 2), (2, 0)):
                edge_mids.append((pts[t[:, i]] + pts[t[:, j]]) / 2)
        return np.vstack(
            [
                rng.uniform(-20.0, 120.0, (200, 2)),  # random
                pts,  # on every site and bounding corner
                np.vstack(edge_mids),  # on edges of every level
                np.array([[1e9, 1e9], [-1e9, 0.0], [0.0, -1e9]]),  # outside
                np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]]),
            ]
        )

    def test_matches_per_slot_reference(self, hier):
        st_, _ = kirkpatrick_structure(hier)
        h = int(st_.level.max())
        new, ref = kirkpatrick_successor, _reference_successor(h)
        rng = np.random.default_rng(5)
        q = self._queries(hier, rng)
        state = np.zeros((q.shape[0], 1))

        def check(vid, key):
            args = (
                vid,
                st_.payload[vid],
                st_.adjacency[vid],
                st_.level[vid],
                key,
                state[: vid.shape[0]],
            )
            got, _ = new(*args)
            want, _ = ref(*args)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            return got

        # along the real descent paths, where children contain the point
        vid = np.zeros(q.shape[0], dtype=np.int64)
        key = q
        while vid.size:
            nxt = check(vid, key)
            keep = nxt != STOP
            vid, key = nxt[keep], key[keep]
        # and at random vertices of every level, mostly missing all children
        check(rng.integers(0, st_.n_vertices, q.shape[0]), q)


class TestNonFiniteRowsDoNotWarn:
    """A non-finite point's ``inf - inf`` is expected: no caller of a
    Kirkpatrick structure warns about it (under ``-W error`` a warning
    would fail every row batched with the bad one)."""

    KEYS = np.array([[np.inf, 0.5], [np.nan, 0.5], [-np.inf, np.inf], [50.0, 50.0]])

    @staticmethod
    def _engine(st_):
        # the paranoid entry check refuses non-finite keys outright
        return MeshEngine.for_problem(st_.size, paranoid=False)

    def test_successor_and_its_unguarded_step(self, hier):
        st_, _ = kirkpatrick_structure(hier)
        vid = np.zeros(self.KEYS.shape[0], dtype=np.int64)
        args = (vid, st_.payload[vid], st_.adjacency[vid], st_.level[vid])
        state = np.zeros((vid.shape[0], 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = kirkpatrick_successor(*args, self.KEYS, state)
        with np.errstate(invalid="ignore"):
            bare, _ = kirkpatrick_successor.unguarded(*args, self.KEYS, state)
        assert got.tobytes() == bare.tobytes()
        assert (got[:3] == STOP).all() and got[3] >= 0

    @pytest.mark.parametrize(
        "caller", ["hierdag", "reference", "synchronous", "constrained"]
    )
    def test_searches(self, hier, caller):
        st_, mu = kirkpatrick_structure(hier)
        qs = QuerySet.start(self.KEYS, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if caller == "hierdag":
                hierdag_multisearch(self._engine(st_), st_, qs, mu=mu, c=2)
            elif caller == "reference":
                qs = run_reference(st_, self.KEYS, 0)
            elif caller == "synchronous":
                synchronous_multisearch(self._engine(st_), st_, qs)
            else:
                top = splitting_from_labels(
                    np.where(st_.level <= 2, 0, -1), st_.adjacency, 0.5
                )
                constrained_multisearch(self._engine(st_), st_, qs, top)
        assert qs.steps[3] > qs.steps[:3].max()  # only the finite row descends


@pytest.fixture(scope="module")
def kirk_st(hier):
    st_, _ = kirkpatrick_structure(hier)
    return st_


def _level_step(successor, st_, vid, q, payload=None, adjacency=None):
    """One level step of ``successor`` at vertices ``vid`` (or at the given
    rows) for points ``q``."""
    payload = st_.payload[vid] if payload is None else payload
    adjacency = st_.adjacency[vid] if adjacency is None else adjacency
    with np.errstate(invalid="ignore", over="ignore"):
        nxt, _ = successor(
            vid, payload, adjacency, st_.level[vid], q, np.zeros((vid.shape[0], 1))
        )
    return nxt


_NON_FINITE = [np.nan, np.inf, -np.inf]


class TestDegenerateLevelStep:
    """The level step, which reads no level and trusts absent child slots
    to contain every finite point, picks what the per-slot reference picks
    on the points where the shortcut could differ."""

    @staticmethod
    def _point(data, st_, v):
        """A point on, next to or far from one of ``v``'s child triangles."""
        kids = int((st_.adjacency[v] >= 0).sum())
        slot = data.draw(st.integers(0, max(kids, 1) - 1), label="slot")
        tri = st_.payload[v, 6 + 6 * slot : 12 + 6 * slot].reshape(3, 2)
        i = data.draw(st.integers(0, 2), label="corner")
        a, b = tri[i], tri[(i + 1) % 3]
        kind = data.draw(
            st.sampled_from(["vertex", "edge", "beside", "outside", "non-finite"]),
            label="kind",
        )
        if kind == "vertex":
            return a
        t = data.draw(st.floats(0.0, 1.0), label="t")
        on_edge = a + t * (b - a)
        if kind == "edge":
            return on_edge
        if kind == "beside":  # 1e-12 either side of the edge
            normal = np.array([a[1] - b[1], b[0] - a[0]])
            length = np.hypot(*normal)
            side = data.draw(st.sampled_from([-1e-12, 1e-12]), label="side")
            return on_edge + side * normal / (length if length > 0 else 1.0)
        if kind == "outside":
            scale = data.draw(st.sampled_from([1e6, 1e9, 1e100]), label="far")
            sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
            return np.array([sign * scale, scale / 3])
        x = data.draw(st.sampled_from(_NON_FINITE + [0.5]), label="x")
        y = data.draw(st.sampled_from(_NON_FINITE), label="y")
        return np.array([x, y])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_degenerate_points(self, kirk_st, data):
        st_ = kirk_st
        h = int(st_.level.max())
        m = data.draw(st.integers(1, 4), label="m")
        # every level, leaves included
        vid = np.array(
            data.draw(
                st.lists(st.integers(0, st_.n_vertices - 1), min_size=m, max_size=m),
                label="vid",
            ),
            dtype=np.int64,
        )
        q = np.array([self._point(data, st_, v) for v in vid], dtype=np.float64)
        got = _level_step(kirkpatrick_successor, st_, vid, q)
        want = _level_step(_reference_successor(h), st_, vid, q)
        assert got.tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_node_missing_the_point(self, kirk_st, data):
        # all MAX_CHILDREN slots real: no absent slot to fall back on, so a
        # point in none of them reads slot 0 and must stop there; a point
        # in some of them goes to the first
        st_ = kirk_st
        h = int(st_.level.max())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tri = rng.uniform(-1.0, 1.0, (1, MAX_CHILDREN, 3, 2))
        inside = data.draw(
            st.lists(st.integers(0, MAX_CHILDREN - 1), max_size=3), label="inside"
        )
        q = np.array([[5.0, 5.0]])
        for j in inside:  # a triangle around the point
            tri[0, j] = q[0] + rng.uniform(0.5, 1.0) * np.array(
                [[0.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
            )
        payload = np.concatenate([np.zeros((1, 6)), tri.reshape(1, -1)], axis=1)
        adjacency = np.arange(1, MAX_CHILDREN + 1, dtype=np.int64)[None, :]
        vid = np.zeros(1, dtype=np.int64)  # level 0, an internal node
        got = _level_step(kirkpatrick_successor, st_, vid, q, payload, adjacency)
        want = _level_step(_reference_successor(h), st_, vid, q, payload, adjacency)
        assert got.tobytes() == want.tobytes()
        assert got[0] == (min(inside) + 1 if inside else STOP)

    def test_absent_slots_are_zero_and_last(self, kirk_st):
        # the invariant the level step relies on
        adj = kirk_st.adjacency
        real = adj >= 0
        assert (real[:, :-1] | ~real[:, 1:]).all()  # no real slot after an absent one
        corners = kirk_st.payload[:, 6:].reshape(-1, MAX_CHILDREN, 6)
        assert not corners[~real].any()
        leaves = kirk_st.level == kirk_st.level.max()
        assert not real[leaves].any()


class TestChildTriangleKernel:
    """The one-broadcast kernel equals ``point_in_triangle`` element-wise."""

    @staticmethod
    def _rows(rng, n, integer):
        """``n`` rows of MAX_CHILDREN triangles (either orientation, some
        degenerate) and, per row, a point on triangle 0's vertex, its
        edge midpoint, one ulp either side of that midpoint, or anywhere."""
        if integer:  # exact midpoints: orientations hit 0 exactly
            tri = rng.integers(-8, 9, (n, MAX_CHILDREN, 3, 2)).astype(np.float64)
        else:
            tri = rng.uniform(-1.0, 1.0, (n, MAX_CHILDREN, 3, 2))
        tri[: n // 8, -1] = 0.0  # the zero padding of an unused slot
        a, b = tri[:, 0, 0], tri[:, 0, 1]
        mid = (a + b) / 2
        kind = np.arange(n) % 5
        q = np.select(
            [kind[:, None] == k for k in range(4)],
            [a, mid, np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf)],
            rng.uniform(-1.0, 1.0, (n, 2)),
        )
        return q, tri

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "grid"])
    def test_matches_point_in_triangle(self, integer):
        q, tri = self._rows(np.random.default_rng(7), 4000, integer)
        got = _child_mask(q, tri.reshape(q.shape[0], 6 * MAX_CHILDREN))
        want = point_in_triangle(
            q[:, None], tri[:, :, 0], tri[:, :, 1], tri[:, :, 2]
        )
        assert got.tolist() == want.tolist()
        assert 0.05 < got.mean() < 0.95  # both outcomes well represented

    def test_orientation_of_exactly_eps_is_on_the_edge(self):
        # q = 0 and a corner 1e-12 off it: two orientations are exactly
        # -eps (first row) or +eps (second row), the tie point_in_triangle
        # puts inside
        tri = np.zeros((2, MAX_CHILDREN, 3, 2))
        tri[0, 0] = [[1e-12, 0.0], [0.0, -1.0], [1.0, 1.0]]
        tri[1, 0] = [[1e-12, 0.0], [0.0, 1.0], [1.0, -1.0]]
        q = np.zeros((2, 2))
        got = _child_mask(q, tri.reshape(2, 6 * MAX_CHILDREN))
        want = point_in_triangle(
            q[:, None], tri[:, :, 0], tri[:, :, 1], tri[:, :, 2]
        )
        assert got.tolist() == want.tolist()
        assert got[:, 0].all()

    def test_non_finite_point_in_no_triangle(self):
        _, tri = self._rows(np.random.default_rng(8), 6, integer=False)
        q = np.array(
            [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf],
             [np.inf, np.inf], [np.nan, np.nan]]
        )
        with np.errstate(invalid="ignore"):  # inf - inf: the caller's flag
            got = _child_mask(q, tri.reshape(6, 6 * MAX_CHILDREN))
        assert not got.any()


def _reference_overlap(t1, t2, eps=1e-12):
    """Per-pair separating-axis test over the six edge normals."""
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    for tri, other in ((t1, t2), (t2, t1)):
        edges = np.roll(tri, -1, axis=0) - tri
        for axis in np.stack([edges[:, 1], -edges[:, 0]], axis=1):
            p1 = tri @ axis
            p2 = other @ axis
            if p1.max() <= p2.min() + eps or p2.max() <= p1.min() + eps:
                return False
    return True


_coord = st.integers(-3, 3).map(float) | st.floats(-100, 100, allow_nan=False)


@st.composite
def _triangle_sets(draw):
    """Two triangle sets over a shared point pool, plus the pool's first
    triangle's twin, a shrunken copy inside it, an edge-sharing and a
    vertex-sharing neighbour."""
    pool = np.array(
        draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=7))
    )
    idx = st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3)
    a = np.array([pool[draw(idx)] for _ in range(draw(st.integers(1, 4)))])
    b = [pool[draw(idx)] for _ in range(draw(st.integers(0, 4)))]
    t = a[0]
    far = np.array(draw(st.tuples(_coord, _coord)))
    b += [
        t.copy(),  # identical
        (t + t.mean(axis=0)) / 2,  # contained
        np.array([t[0], t[1], far]),  # shared edge
        np.array([t[2], far, pool[0]]),  # shared vertex
    ]
    return a, np.array(b)


def _overlap_matrix(a, b, eps=1e-12):
    """The ``(N, M)`` overlap matrix: one pairs call over every pair."""
    ia, ib = np.divmod(np.arange(a.shape[0] * b.shape[0]), b.shape[0])
    return triangles_overlap_pairs(a, b, ia, ib, eps).reshape(len(a), len(b))


class TestOverlapMatrix:
    @given(_triangle_sets(), st.sampled_from([1e-12, 1e-6, 0.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_reference(self, sets, eps):
        a, b = sets
        got = _overlap_matrix(a, b, eps)
        want = np.array([[_reference_overlap(x, y, eps) for y in b] for x in a])
        assert got.shape == (a.shape[0], b.shape[0])
        assert np.array_equal(got, want)
        assert triangles_overlap(a[0], b[0], eps) == want[0, 0]
        # any list of index pairs, repeats and any order included
        rng = np.random.default_rng(a.shape[0] * 31 + b.shape[0])
        ia = rng.integers(0, a.shape[0], 12)
        ib = rng.integers(0, b.shape[0], 12)
        pairs = triangles_overlap_pairs(a, b, ia, ib, eps)
        assert np.array_equal(pairs, want[ia, ib])

    def test_named_cases(self):
        t = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        b = np.array(
            [
                t,  # identical
                (t + t.mean(axis=0)) / 2,  # contained
                [[4.0, 0.0], [0.0, 4.0], [4.0, 4.0]],  # shared edge
                [[4.0, 0.0], [6.0, 0.0], [6.0, -2.0]],  # shared vertex
                [[1.0, 1.0], [9.0, 1.0], [1.0, 9.0]],  # crossing
            ]
        )
        got = _overlap_matrix(t[None], b)
        assert got.tolist() == [[True, True, False, False, True]]


def _snapshot_digest(n: int, seed: int) -> tuple[str, float]:
    """Snapshot sha256 and modelled steps of building the structure."""
    construct = Construction(n + 3)
    hier = build_kirkpatrick(
        uniform_sites(n, seed=seed), seed=seed, construct=construct
    )
    arrays, meta = kirkpatrick_snapshot_arrays(
        *kirkpatrick_structure(hier, construct=construct)
    )
    h = hashlib.sha256()
    for k in sorted(arrays):
        a = np.ascontiguousarray(arrays[k])
        h.update(f"{k}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest(), construct.steps


#: snapshot digests and construction steps of the per-pair linking,
#: per-polygon retriangulation construction, pinned so the batched
#: removal rounds are held to the same structure bytes and charges
_GOLDEN_DIGESTS = {
    (200, 0): (
        "67e549d448a3d1c1e183b8dca96ffa108b12f0919d7b0eaf7ea7598f3b2c2cab",
        2820.0,
    ),
    (200, 1): (
        "bbcece54705a4d73e98fc3d7753383f184dfd5dff3c7d81edecf01fdb4109c25",
        2689.0,
    ),
    (200, 2): (
        "0e3aaa1ba14092087fe4187e9b0c147be84fb190554175cbbead0183760cda87",
        2795.0,
    ),
    (1000, 3): (
        "e0480753991f60b8966b03290163995336249fe3470a4448620c2e2f39210f6f",
        6141.0,
    ),
    (3000, 4): (
        "9f880dfa7923cd4274586f939776e891cf2ad4f9c8d42bfe9b05c9849ff1845f",
        10792.0,
    ),
}


@pytest.mark.parametrize("n, seed", sorted(_GOLDEN_DIGESTS))
def test_snapshot_digest_is_pinned(n, seed):
    assert _snapshot_digest(n, seed) == _GOLDEN_DIGESTS[(n, seed)]
