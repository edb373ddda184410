"""Tests for the multisearch problem model (Section 2 semantics)."""

import numpy as np
import pytest

from repro.core.model import (
    STOP,
    GraphStore,
    QuerySet,
    SearchStructure,
    advance_queries,
    run_reference,
)
from repro.graphs.adapters import ktree_directed_structure
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine
from repro.mesh.records import packed_vertices


def chain_structure(n: int) -> SearchStructure:
    """A directed path 0 -> 1 -> ... -> n-1; queries walk to the end."""
    adjacency = np.full((n, 1), -1, dtype=np.int64)
    adjacency[:-1, 0] = np.arange(1, n)

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        return vadjacency[:, 0].copy(), qstate

    return SearchStructure(
        adjacency=adjacency,
        payload=np.zeros((n, 1)),
        level=np.arange(n, dtype=np.int64),
        successor=successor,
        directed=True,
    )


class TestSearchStructure:
    def test_size_directed(self):
        st = chain_structure(5)
        assert st.n_vertices == 5
        assert st.n_edges == 4
        assert st.size == 9

    def test_size_undirected_halves_edges(self):
        t = build_balanced_search_tree(2, 3)
        adjacency = np.concatenate([t.parent[:, None], t.children], axis=1)
        st = SearchStructure(
            adjacency=adjacency,
            payload=np.zeros((t.n_vertices, 1)),
            level=t.depth,
            successor=lambda *a: (np.full(a[0].shape[0], STOP), a[5]),
            directed=False,
        )
        assert st.n_edges == t.n_vertices - 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SearchStructure(
                adjacency=np.zeros((3, 1), dtype=np.int64),
                payload=np.zeros((4, 1)),
                level=np.zeros(3, dtype=np.int64),
                successor=lambda *a: None,
            )

    def test_bad_label_length_rejected(self):
        with pytest.raises(ValueError):
            SearchStructure(
                adjacency=np.zeros((3, 1), dtype=np.int64),
                payload=np.zeros((3, 1)),
                level=np.zeros(3, dtype=np.int64),
                successor=lambda *a: None,
                labels={"comp": np.zeros(5, dtype=np.int64)},
            )


class TestQuerySet:
    def test_start_broadcasts_scalar_vertex(self):
        qs = QuerySet.start(np.zeros(5), 3)
        assert (qs.current == 3).all()

    def test_start_per_query_vertices(self):
        qs = QuerySet.start(np.zeros(3), np.array([0, 1, 2]))
        assert qs.current.tolist() == [0, 1, 2]

    def test_active_tracks_stop(self):
        qs = QuerySet.start(np.zeros(3), np.array([0, STOP, 2]))
        assert qs.active.tolist() == [True, False, True]

    def test_paths_requires_trace(self):
        qs = QuerySet.start(np.zeros(2), 0)
        with pytest.raises(RuntimeError):
            qs.paths()

    def test_paths_collapse_consecutive_duplicates(self):
        qs = QuerySet.start(np.zeros(1), 0, record_trace=True)
        qs.current[0] = 0
        qs.log_visit()  # duplicate
        qs.current[0] = 4
        qs.log_visit()
        qs.current[0] = STOP
        qs.log_visit()
        assert qs.paths() == [[0, 4]]


class TestRunReference:
    def test_chain_walk(self):
        st = chain_structure(6)
        res = run_reference(st, np.zeros(3), 0)
        assert all(p == list(range(6)) for p in res.paths())
        # steps counts successor applications, including the final STOP
        assert (res.steps == 6).all()

    def test_respects_start_vertices(self):
        st = chain_structure(6)
        res = run_reference(st, np.zeros(2), np.array([2, 4]))
        assert res.paths()[0] == [2, 3, 4, 5]
        assert res.paths()[1] == [4, 5]

    def test_nonterminating_successor_detected(self):
        n = 4
        adjacency = np.zeros((n, 1), dtype=np.int64)  # all point at vertex 0

        def successor(vid, vp, va, vl, qk, qs_):
            return np.zeros(vid.shape[0], dtype=np.int64), qs_  # loop forever

        st = SearchStructure(
            adjacency=adjacency,
            payload=np.zeros((n, 1)),
            level=np.zeros(n, dtype=np.int64),
            successor=successor,
        )
        with pytest.raises(RuntimeError, match="still active"):
            run_reference(st, np.zeros(1), 0, max_steps=10)


class TestGraphStore:
    def test_load_full_structure(self):
        st = chain_structure(10)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        assert store.n_vertices == 10

    def test_gather_returns_records(self):
        st = chain_structure(6)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        found, rows = store.gather(np.array([3, STOP, 6, 2**40]))
        assert found.tolist() == [True, False, False, False]
        pay, adj, lev = store.vertices.fields(rows)
        assert lev[0] == 3
        assert adj[0, 0] == 4
        assert pay.dtype == np.float64 and pay.shape == (4, 1)

    def test_gather_charges_rar(self):
        st = chain_structure(6)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        t0 = eng.clock.time
        store.gather(np.array([0]))
        assert eng.clock.time - t0 == eng.clock.cost.route * 4

    def test_reads_the_structures_packed_records(self):
        st = chain_structure(10)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        assert store.vertices is packed_vertices(st)
        assert not np.shares_memory(store.vertices.block, st.level)

    def test_packed_records_are_read_only(self):
        st = chain_structure(10)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        with pytest.raises(ValueError, match="read-only"):
            store.vertices.block[0, 0] = 7

    def test_structure_stays_writable(self):
        # the chaos corruptor ``corrupt_structure_level`` writes in place
        st = chain_structure(10)
        eng = MeshEngine(4)
        GraphStore.load(eng.root, st)
        st.level[3] = 99
        st.adjacency[3, 0] = 5
        st.payload[3, 0] = 1.5
        assert st.level[3] == 99

    def test_capacity_enforced(self):
        st = chain_structure(64)
        eng = MeshEngine(2, capacity=2)
        with pytest.raises(Exception):
            GraphStore.load(eng.root, st, per_proc=16)


class TestAdvanceQueries:
    def test_one_multistep(self):
        st = chain_structure(5)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        qs = QuerySet.start(np.zeros(3), 0)
        advanced = advance_queries(store, st, qs)
        assert advanced.sum() == 3
        assert (qs.current == 1).all()
        assert (qs.steps == 1).all()

    def test_mask_restricts(self):
        st = chain_structure(5)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        qs = QuerySet.start(np.zeros(3), 0)
        mask = np.array([True, False, True])
        advance_queries(store, st, qs, mask=mask)
        assert qs.current.tolist() == [1, 0, 1]

    def test_out_of_range_vertex_untouched(self):
        st = chain_structure(8)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        qs = QuerySet.start(np.zeros(2), np.array([1, 8]))
        advanced = advance_queries(store, st, qs)
        assert advanced.tolist() == [True, False]
        assert qs.current.tolist() == [2, 8]

    def test_stop_commits(self):
        st = chain_structure(3)
        eng = MeshEngine(4)
        store = GraphStore.load(eng.root, st)
        qs = QuerySet.start(np.zeros(1), 2)  # at the end of the chain
        advance_queries(store, st, qs)
        assert qs.current[0] == STOP
        assert not qs.active.any()


class TestMeshEquivalence:
    def test_mesh_and_reference_agree_on_tree_search(self):
        t = build_balanced_search_tree(2, 7, seed=1)
        st = ktree_directed_structure(t)
        rng = np.random.default_rng(0)
        keys = rng.uniform(t.leaf_keys[0], t.leaf_keys[-1], 100)
        ref = run_reference(st, keys, 0)
        eng = MeshEngine.for_problem(t.size)
        store = GraphStore.load(eng.root, st)
        qs = QuerySet.start(keys, 0, record_trace=True)
        while qs.active.any():
            advance_queries(store, st, qs)
        assert qs.paths() == ref.paths()
