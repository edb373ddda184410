"""Tests for Algorithm 1 (Theorem 2): hierarchical-DAG multisearch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.apps.pointloc import final_vertices
from repro.core.baseline import synchronous_multisearch
from repro.core.hierdag import (
    _Advancer,
    _unit_level_steps,
    hierdag_multisearch,
    lemma1_band_steps,
    plan_hierdag,
)
from repro.core.model import STOP, QuerySet, SearchStructure, run_reference
from repro.geometry.kirkpatrick import build_kirkpatrick, kirkpatrick_structure
from repro.graphs.adapters import hierdag_search_structure
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.mesh.clock import CostModel
from repro.mesh.engine import MeshEngine


def dag_setup(mu=2, height=10, m=512, seed=0):
    dag, leaf_keys = build_mu_ary_search_dag(mu, height, seed=seed)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(seed + 1)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], m)
    return dag, st, keys


class TestCorrectness:
    @pytest.mark.parametrize("mu,height", [(2, 8), (2, 11), (3, 6), (4, 5)])
    def test_matches_reference(self, mu, height):
        dag, st, keys = dag_setup(mu, height, m=256)
        ref = run_reference(st, keys, 0)
        eng = MeshEngine.for_problem(max(dag.size, keys.size))
        qs = QuerySet.start(keys, 0, record_trace=True)
        hierdag_multisearch(eng, st, qs, mu=float(mu), c=2)
        assert qs.paths() == ref.paths()

    def test_paper_c_constant_also_correct(self):
        dag, st, keys = dag_setup(2, 10, m=128)
        ref = run_reference(st, keys, 0)
        eng = MeshEngine.for_problem(max(dag.size, keys.size))
        qs = QuerySet.start(keys, 0, record_trace=True)
        hierdag_multisearch(eng, st, qs, mu=2.0)  # c = mu_constant = 4
        assert qs.paths() == ref.paths()

    def test_all_queries_terminate(self):
        dag, st, keys = dag_setup(2, 9)
        eng = MeshEngine.for_problem(dag.size)
        qs = QuerySet.start(keys, 0)
        res = hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
        assert not qs.active.any()
        assert res.multisteps >= dag.height + 1

    def test_queries_starting_mid_dag(self):
        dag, st, keys = dag_setup(2, 9, m=64)
        # start at level 3 vertices
        rng = np.random.default_rng(4)
        starts = rng.integers(dag.level_start[3], dag.level_start[4], 64)
        # keys must lie in the start vertex's subtree to be meaningful;
        # use each start vertex's own separator range: just take any key --
        # the search is still well-defined (descends by comparisons)
        ref = run_reference(st, keys, starts)
        eng = MeshEngine.for_problem(dag.size)
        qs = QuerySet.start(keys, starts, record_trace=True)
        hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
        assert qs.paths() == ref.paths()

    def test_tiny_dag_degenerate_bands(self):
        dag, st, keys = dag_setup(2, 3, m=16)
        ref = run_reference(st, keys, 0)
        eng = MeshEngine.for_problem(dag.size)
        qs = QuerySet.start(keys, 0, record_trace=True)
        res = hierdag_multisearch(eng, st, qs, mu=2.0)
        assert qs.paths() == ref.paths()
        assert len(res.detail) >= 2


class TestFinalVertex:
    """``MultisearchResult.final`` is the last vertex of each query's visit
    log, and the same whether or not the log is kept."""

    @staticmethod
    def check(st, keys, starts, mu, size):
        finals = []
        for record_trace in (True, False):
            eng = MeshEngine.for_problem(size)
            qs = QuerySet.start(keys, starts, record_trace=record_trace)
            finals.append(hierdag_multisearch(eng, st, qs, mu=mu, c=2).final)
            if record_trace:
                want = final_vertices(qs)
        assert finals[0].dtype == finals[1].dtype == np.int64
        assert finals[0].tolist() == finals[1].tolist() == want.tolist()
        return want

    @pytest.mark.parametrize("height", [4, 5, 6, 7])
    @pytest.mark.parametrize("m", [16, 57, 96])
    def test_e1_grid(self, height, m):
        dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
        st = hierdag_search_structure(dag)
        keys = np.random.default_rng(m).uniform(leaf_keys[0], leaf_keys[-1], m)
        # most start at the root, some mid-DAG, some already stopped
        starts = np.zeros(m, dtype=np.int64)
        starts[1::5] = dag.level_start[2]
        starts[::7] = STOP
        want = self.check(st, keys, starts, 2.0, max(dag.size, m))
        assert (want[::7] == -1).all() and (want[1:] >= 0).any()

    def test_kirkpatrick_dag(self):
        rng = np.random.default_rng(3)
        sites = rng.uniform(0, 1, (200, 2))
        st, mu = kirkpatrick_structure(build_kirkpatrick(sites, seed=0))
        keys = np.vstack([rng.uniform(0, 1, (40, 2)), sites[:10], [[1e6, 1e6]]])
        want = self.check(st, keys, 0, mu, max(st.size, keys.shape[0]))
        assert want[-1] == 0  # outside the bounding triangle: stops at the root


class TestSharedLevel:
    """While a point-location batch sits on one level it advances as a
    whole; leaving that level (a row stops at the root, or starts
    elsewhere) must not change anything the search reports."""

    @pytest.fixture(scope="class")
    def kirk(self):
        rng = np.random.default_rng(11)
        sites = rng.uniform(0, 1, (150, 2))
        hier = build_kirkpatrick(sites, seed=0)
        st, mu = kirkpatrick_structure(hier)
        tri = hier.points[hier.base_triangles]
        mids = (tri[:, 0] + tri[:, 1]) / 2  # on base-triangle edges
        return st, mu, np.vstack([sites, mids])

    @staticmethod
    def batch(kirk, m, mix):
        st, mu, special = kirk
        rng = np.random.default_rng(m)
        keys = rng.uniform(0, 1, (m, 2))
        keys[1::4] = special[rng.integers(0, len(special), keys[1::4].shape[0])]
        starts = np.zeros(m, dtype=np.int64)
        level3 = np.searchsorted(st.level, [3, 4])  # the vertices of level 3
        if mix == "stop-at-root":  # the batch leaves the shared level at 0
            bad = [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan], [1e9, 1e9]]
            keys[::3] = np.resize(bad, keys[::3].shape)
        elif mix == "mid-level":  # one shared level, below the root
            starts[:] = rng.integers(*level3, m)
        elif mix == "mixed-starts":
            starts[::2] = rng.integers(*level3, starts[::2].size)
            starts[::3] = STOP
        return st, mu, keys, starts

    @staticmethod
    def run(st, mu, keys, starts, record_trace):
        # the paranoid entry check refuses non-finite keys, which a served
        # point-location batch answers -1: compare the searches unchecked
        eng = MeshEngine.for_problem(max(st.size, keys.shape[0]), paranoid=False)
        qs = QuerySet.start(keys, starts, record_trace=record_trace)
        return qs, hierdag_multisearch(eng, st, qs, mu=mu, c=2)

    @pytest.mark.parametrize(
        "mix", ["root", "stop-at-root", "mid-level", "mixed-starts"]
    )
    @pytest.mark.parametrize("m", [1, 2, 64])
    def test_matches_traced_advance_and_reference(self, kirk, m, mix):
        st, mu, keys, starts = self.batch(kirk, m, mix)
        qs, res = self.run(st, mu, keys, starts, record_trace=False)
        tqs, tres = self.run(st, mu, keys, starts, record_trace=True)
        ref = run_reference(st, keys, starts)
        for other in (tqs, ref):
            assert qs.current.tobytes() == other.current.tobytes()
            assert qs.steps.tobytes() == other.steps.tobytes()
            assert qs.state.tobytes() == other.state.tobytes()
        assert res.final.tobytes() == tres.final.tobytes()
        assert res.final.tolist() == final_vertices(ref).tolist()
        assert res.mesh_steps == tres.mesh_steps
        assert res.detail == tres.detail
        assert list(res.detail) == list(tres.detail)

    @pytest.mark.parametrize(
        "mix,shared", [("root", 0), ("mid-level", 3), ("mixed-starts", None)]
    )
    def test_shared_level_taken_when_all_rows_share_one(self, kirk, mix, shared):
        st, _, keys, starts = self.batch(kirk, 64, mix)
        assert _Advancer(st, QuerySet.start(keys, starts))._shared == shared
        # the traced advance keeps every row's level live
        traced_qs = QuerySet.start(keys, starts, record_trace=True)
        assert _Advancer(st, traced_qs)._shared is None


def _chain(level):
    """The DAG 0 -> 1 -> 2 whose successor follows the one edge."""

    def successor(vid, vpayload, vadjacency, vlevel, qkey, qstate):
        return vadjacency[:, 0].copy(), qstate

    return SearchStructure(
        adjacency=np.array([[1], [2], [-1]], dtype=np.int64),
        payload=np.zeros((3, 1)),
        level=np.array(level, dtype=np.int64),
        successor=successor,
    )


class TestUnitLevelCache:
    def test_replacing_the_level_array_rechecks(self):
        st = _chain([0, 1, 2])
        assert _unit_level_steps(st)
        st.level = np.array([0, 2, 3], dtype=np.int64)
        assert not _unit_level_steps(st)
        assert not _unit_level_steps(_chain([0, 2, 3]))  # a fresh check agrees
        # the advancer follows the new levels: vertex 1 now sits on level 2
        adv = _Advancer(st, QuerySet.start(np.zeros(1), 0))
        assert adv.advance(0) == 1
        assert adv.advance(1) == 0
        assert adv.advance(2) == 1
        adv.flush()
        assert adv.qs.current.tolist() == [2] and adv.qs.steps.tolist() == [2]

    def test_relevelled_chain_matches_reference(self):
        st = _chain([0, 1, 2])
        eng = MeshEngine.for_problem(16)
        hierdag_multisearch(eng, st, QuerySet.start(np.zeros(4), 0), mu=2.0, c=2)
        st.level = np.array([0, 2, 3], dtype=np.int64)
        ref = run_reference(st, np.zeros(4), 0)
        qs = QuerySet.start(np.zeros(4), 0)
        res = hierdag_multisearch(MeshEngine.for_problem(16), st, qs, mu=2.0, c=2)
        assert qs.steps.tolist() == ref.steps.tolist() == [3] * 4
        assert res.final.tolist() == final_vertices(ref).tolist() == [2] * 4


class TestPlanning:
    def test_grids_monotone_and_capacity_safe(self):
        dag, st, _ = dag_setup(2, 14, m=1)
        plan = plan_hierdag(st, 200, 2.0, c=2)
        gs = [bp.g for bp in plan.bands]
        assert all(a >= b for a, b in zip(gs, gs[1:]))
        for bp in plan.bands:
            records = bp.band.n_vertices * plan.records_per_vertex
            assert (200 // bp.g) ** 2 * 8 >= records

    def test_inner_grid_capacity(self):
        dag, st, _ = dag_setup(2, 14, m=1)
        plan = plan_hierdag(st, 200, 2.0, c=2)
        for bp in plan.bands:
            assert 1 <= bp.q <= bp.band.n_levels
            assert bp.inner_side >= 1

    def test_fallback_on_tiny_mesh(self):
        dag, st, _ = dag_setup(2, 10, m=1)
        plan = plan_hierdag(st, 8, 2.0, c=2)  # mesh far too small: g -> 1
        for bp in plan.bands:
            assert bp.g >= 1


class TestCostShape:
    def test_beats_baseline_at_scale(self):
        dag, st, keys = dag_setup(2, 14, m=2048)
        eng1 = MeshEngine.for_problem(max(dag.size, keys.size))
        qs1 = QuerySet.start(keys, 0)
        ours = hierdag_multisearch(eng1, st, qs1, mu=2.0, c=2)
        eng2 = MeshEngine.for_problem(max(dag.size, keys.size))
        qs2 = QuerySet.start(keys, 0)
        base = synchronous_multisearch(eng2, st, qs2)
        assert ours.mesh_steps < base.mesh_steps

    def test_steps_over_sqrt_n_bounded(self):
        ratios = {}
        for height in (10, 12, 14):
            dag, st, keys = dag_setup(2, height, m=256)
            eng = MeshEngine.for_problem(dag.size)
            qs = QuerySet.start(keys, 0)
            res = hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
            ratios[height] = res.mesh_steps / dag.size**0.5
        # the ratio must not grow with n like the baseline's (which is
        # proportional to h): allow mild growth, forbid doubling
        assert ratios[14] / ratios[10] < 1.5, ratios

    def test_detail_accounts_for_total(self):
        dag, st, keys = dag_setup(2, 12, m=256)
        eng = MeshEngine.for_problem(dag.size)
        qs = QuerySet.start(keys, 0)
        res = hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
        accounted = sum(res.detail.values())
        assert accounted == pytest.approx(res.mesh_steps, rel=0.05)


class TestLemma1:
    def test_band_solver_advances_through_band(self):
        dag, st, keys = dag_setup(2, 12, m=128)
        eng = MeshEngine.for_problem(dag.size)
        plan = plan_hierdag(st, eng.shape.rows, 2.0, c=2)
        assert plan.bands, "need at least one band for this test"
        bp = plan.bands[0]
        qs = QuerySet.start(keys, 0)
        lemma1_band_steps(eng, st, qs, bp)
        # every query sits one past the band's last level
        assert (st.level[qs.current] == bp.band.hi_level + 1).all()

    def test_band_solver_cost_formula(self):
        # Lemma 1: O(sqrt(|B_i|) * log(Delta h_i)) on the band submesh
        dag, st, keys = dag_setup(2, 14, m=64)
        eng = MeshEngine.for_problem(dag.size)
        plan = plan_hierdag(st, eng.shape.rows, 2.0, c=2)
        bp = plan.bands[0]
        qs = QuerySet.start(keys, 0)
        t0 = eng.clock.time
        lemma1_band_steps(eng, st, qs, bp)
        elapsed = eng.clock.time - t0
        bound = (
            eng.clock.cost.route
            * bp.sub_side
            * (4 * np.log2(max(bp.band.n_levels, 2)) + 8)
        )
        assert elapsed <= bound


class TestParanoidEntry:
    """The entry check must see a wild query pointer before anything reads
    through it, whether or not the structure was searched before."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_wild_pointer_raises_invariant(self, warm):
        from repro.mesh.faults import InvariantViolation

        dag, st, keys = dag_setup(2, 8, m=64)
        if warm:  # a prior search leaves per-structure caches behind
            eng = MeshEngine.for_problem(max(dag.size, keys.size))
            hierdag_multisearch(eng, st, QuerySet.start(keys, 0), mu=2.0, c=2)
        eng = MeshEngine.for_problem(max(dag.size, keys.size), paranoid=True)
        qs = QuerySet.start(keys, 0)
        qs.current[5] = st.n_vertices + 17  # what corrupt_query_pointer writes
        with pytest.raises(InvariantViolation, match="hierdag:entry"):
            hierdag_multisearch(eng, st, qs, mu=2.0, c=2)


def _schedule_sums(schedule):
    """The schedule read as the cost model: the flat step total and the
    per-key sums, each added up in run order."""
    total, sums = 0.0, dict.fromkeys(schedule.keys, 0.0)
    for p in schedule.phases:
        if p.label is None:  # a paranoid boundary charges nothing
            continue
        steps = p.extra if p.side is None else p.constant * p.side + p.extra
        total += steps
        if p.key is not None:
            sums[p.key] += steps
    return total, sums


class TestScheduleIsTheRun:
    """The plan's charge schedule is the run: its steps and per-key sums are
    what Algorithm 1 charges, on any structure and query count."""

    @given(
        mu=hst.sampled_from([2, 3]),
        height=hst.integers(1, 9),
        m=hst.integers(1, 300),
        c=hst.sampled_from([2, 3, None]),
        seed=hst.integers(0, 3),
        route=hst.sampled_from([8.0, 5.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_schedule_equals_run(self, mu, height, m, c, seed, route):
        height = min(height, 6) if mu == 3 else height
        dag, st, keys = dag_setup(mu, height, m=m, seed=seed)
        eng = MeshEngine.for_problem(max(dag.size, m))
        eng.clock.cost = CostModel(route=route)
        calls = []
        charge_phase = eng.charge_phase
        eng.charge_phase = lambda *a, **k: calls.append(a) or charge_phase(*a, **k)
        qs = QuerySet.start(keys, 0)
        res = hierdag_multisearch(eng, st, qs, mu=float(mu), c=c)
        plan = plan_hierdag(st, eng.shape.rows, float(mu), c)
        schedule = plan.schedule(m, eng.clock.cost)
        total, sums = _schedule_sums(schedule)
        assert res.mesh_steps == total == eng.clock.time
        assert list(res.detail) == list(sums) and res.detail == sums
        assert res.multisteps == sum(p.level is not None for p in schedule.phases)
        # one engine charge per charged phase (a sharded engine prices each)
        assert len(calls) == sum(
            p.label is not None and p.side is not None for p in schedule.phases
        )
        assert not qs.active.any()

    def test_lemma1_runs_the_bands_phases(self):
        dag, st, keys = dag_setup(2, 14, m=200)
        eng = MeshEngine.for_problem(dag.size)
        plan = plan_hierdag(st, eng.shape.rows, 2.0, c=2)
        _, sums = _schedule_sums(plan.schedule(200, eng.clock.cost))
        for j, bp in enumerate(plan.bands):
            detail = lemma1_band_steps(
                MeshEngine.for_problem(dag.size), st, QuerySet.start(keys, 0), bp
            )
            assert list(detail) == ["phase1", "phase2", "dup_b1"]
            assert detail == {k: sums[f"band{j}:{k}"] for k in detail}
