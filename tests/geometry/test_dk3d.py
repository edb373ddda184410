"""Tests for the Dobkin-Kirkpatrick hierarchy."""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.workloads import sphere_points
from repro.core.model import run_reference
from repro.geometry.dk3d import (
    build_dk_hierarchy,
    dk_support_structure,
    dk_tangent_snapshot_arrays,
    dk_tangent_structure,
)
from repro.geometry.independent import greedy_low_degree_independent_set
from repro.mesh.construct import Construction


@pytest.fixture(scope="module")
def hier():
    return build_dk_hierarchy(sphere_points(300, seed=0), seed=1)


class TestConstruction:
    def test_vertex_sets_nested(self, hier):
        for a, b in zip(hier.hulls, hier.hulls[1:]):
            assert set(b.vertices) < set(a.vertices)

    def test_geometric_shrink(self, hier):
        sizes = [h.vertices.size for h in hier.hulls]
        assert all(b <= 0.95 * a for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) <= 8 * np.log2(sizes[0])

    def test_top_is_constant_size(self, hier):
        assert hier.hulls[-1].vertices.size <= 8

    def test_inner_hulls_contained(self, hier):
        # every coarser hull is contained in the finest
        fine = hier.hulls[0]
        for h in hier.hulls[1:]:
            assert fine.contains(hier.points[h.vertices]).all()

    def test_adjacency_matches_edges(self, hier):
        for h, adj in zip(hier.hulls, hier.adjacency):
            edges = {tuple(e) for e in h.edges().tolist()}
            for v, nbrs in adj.items():
                for u in nbrs:
                    assert (min(u, v), max(u, v)) in edges


class TestSupportDescent:
    def test_matches_brute_force(self, hier):
        rng = np.random.default_rng(2)
        for d in rng.normal(size=(100, 3)):
            got = hier.support(d)
            val = hier.points[got] @ d
            best = hier.points[hier.hulls[0].vertices] @ d
            assert val == pytest.approx(best.max(), abs=1e-9)

    def test_axis_directions(self, hier):
        for axis in range(3):
            d = np.zeros(3)
            d[axis] = 1.0
            got = hier.support(d)
            assert hier.points[got, axis] == pytest.approx(
                hier.points[hier.hulls[0].vertices][:, axis].max()
            )


class TestSupportStructure:
    def test_multisearch_matches_brute(self, hier):
        st, orig = dk_support_structure(hier)
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(100, 3))
        res = run_reference(st, dirs, 0)
        for d, path in zip(dirs, res.paths()):
            v = orig[path[-1]]
            best = (hier.points[hier.hulls[0].vertices] @ d).max()
            assert hier.points[v] @ d == pytest.approx(best, abs=1e-9)

    def test_path_length_is_level_count(self, hier):
        st, _ = dk_support_structure(hier)
        res = run_reference(st, np.array([[1.0, 0.0, 0.0]]), 0)
        assert len(res.paths()[0]) == hier.n_levels + 1  # root + levels

    def test_structure_is_hierarchical_dag(self, hier):
        st, _ = dk_support_structure(hier)
        sizes = np.bincount(st.level)
        assert sizes[0] == 1
        assert (np.diff(sizes[1:]) >= 0).all()

    def test_overflow_guard(self, hier):
        with pytest.raises(ValueError):
            dk_support_structure(hier, max_candidates=2)


class TestTangentStructure:
    def test_descent_terminates_at_finest_level(self, hier):
        # end-to-end tangent correctness is covered by the linepoly app
        # tests; here we check the DAG walk itself: every query descends
        # exactly one vertex per level and stops at the finest level
        st, orig = dk_tangent_structure(hier)
        from repro.apps.linepoly import line_keys

        rng = np.random.default_rng(4)
        p0 = rng.normal(scale=3.0, size=(20, 3))
        dirs = rng.normal(size=(20, 3))
        keys = line_keys(p0, dirs)
        ref = run_reference(st, keys, 0, state_width=1)
        for path in ref.paths():
            assert len(path) == hier.n_levels + 1
            assert st.level[path[-1]] == hier.n_levels
            assert (np.diff(st.level[np.array(path)]) == 1).all()
        assert (orig[[p[-1] for p in ref.paths()]] >= 0).all()


class TestIndependentSet:
    def test_is_independent(self):
        neighbors = {0: {1, 2}, 1: {0}, 2: {0}, 3: set()}
        chosen = greedy_low_degree_independent_set(neighbors, {0, 1, 2, 3}, seed=0)
        for v in chosen:
            assert not (neighbors[v] & set(chosen))

    def test_degree_filter(self):
        neighbors = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        chosen = greedy_low_degree_independent_set(
            neighbors, {0, 1, 2, 3}, max_degree=1, seed=0
        )
        assert 0 not in chosen
        assert chosen  # the leaves qualify

    def test_threshold_relaxes_when_needed(self):
        neighbors = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        chosen = greedy_low_degree_independent_set(
            neighbors, {0, 1, 2}, max_degree=0, seed=0
        )
        assert len(chosen) == 1  # triangle: relaxed to degree 2, one picked

    def test_constant_fraction_on_hull_graphs(self):
        hier = build_dk_hierarchy(sphere_points(200, seed=5), seed=2)
        sizes = [h.vertices.size for h in hier.hulls]
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a * 0.98
            assert b >= a * 0.3  # greedy removes a bounded fraction


def _snapshot_digest(n: int, seed: int) -> tuple[str, float]:
    """Snapshot sha256 and modelled steps of building the hierarchy."""
    construct = Construction(n)
    hier = build_dk_hierarchy(sphere_points(n, seed=seed), seed=seed, construct=construct)
    arrays, meta = dk_tangent_snapshot_arrays(hier)
    h = hashlib.sha256()
    for k in sorted(arrays):
        a = np.ascontiguousarray(arrays[k])
        h.update(f"{k}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest(), construct.steps


#: snapshot digests and construction steps, recorded with the previous
#: (beneath-beyond) host hull and pinned so the hull backend cannot move
#: the hierarchy's vertex sets, adjacency, independent-set choices or charges
_GOLDEN_DIGESTS = {
    (256, 0): (
        "d68941943ed317248de62bbf609870b09d0e3fc0d7b1e108ff4590a1e38b3113",
        3085.0,
    ),
    (2048, 1): (
        "472c6a513d66dcb804d1584b8c4370cf13a8d8c808983a19c659e18b4fb8361a",
        9515.0,
    ),
}


@pytest.mark.parametrize("n, seed", sorted(_GOLDEN_DIGESTS))
def test_snapshot_digest_is_pinned(n, seed):
    assert _snapshot_digest(n, seed) == _GOLDEN_DIGESTS[(n, seed)]
