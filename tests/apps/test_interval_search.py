"""Tests for the mesh interval-search application (Section 6, E8)."""

import numpy as np
import pytest

from repro.apps.interval_search import (
    count_intersections_mesh,
    interval_count_snapshot_arrays,
    report_intersections_mesh,
    setup_interval_search,
)
from repro.bench.workloads import random_intervals
from repro.intervals.interval_tree import brute_force_intersections
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def dataset():
    lefts, rights = random_intervals(300, seed=0, domain=100.0, mean_len=6.0)
    setup = setup_interval_search(lefts, rights)
    rng = make_rng(1)
    a = rng.uniform(0, 100, 80)
    b = a + rng.uniform(0.1, 15, 80)
    return setup, lefts, rights, a, b


class TestCounting:
    def test_counts_match_brute_force(self, dataset):
        setup, lefts, rights, a, b = dataset
        counts, steps = count_intersections_mesh(setup, a, b)
        want = [brute_force_intersections(lefts, rights, a[i], b[i]).size
                for i in range(a.size)]
        assert counts.tolist() == want
        assert steps > 0

    def test_empty_result_counts(self, dataset):
        setup, lefts, rights, _, _ = dataset
        a = np.array([-1000.0])
        b = np.array([-999.0])
        counts, _ = count_intersections_mesh(setup, a, b)
        assert counts[0] == 0

    def test_covering_query(self, dataset):
        setup, lefts, rights, _, _ = dataset
        counts, _ = count_intersections_mesh(
            setup, np.array([lefts.min() - 1]), np.array([rights.max() + 1])
        )
        assert counts[0] == lefts.size


class TestReporting:
    def test_reports_match_brute_force(self, dataset):
        setup, lefts, rights, a, b = dataset
        reports, steps = report_intersections_mesh(setup, a, b)
        for i in range(a.size):
            want = set(brute_force_intersections(lefts, rights, a[i], b[i]).tolist())
            assert set(reports[i].tolist()) == want
        assert steps > 0

    def test_reports_consistent_with_counts(self, dataset):
        setup, _, _, a, b = dataset
        counts, _ = count_intersections_mesh(setup, a, b)
        reports, _ = report_intersections_mesh(setup, a, b)
        assert [r.size for r in reports] == counts.tolist()

    def test_degenerate_point_queries(self, dataset):
        setup, lefts, rights, _, _ = dataset
        q = np.array([25.0, 50.0, 75.0])
        reports, _ = report_intersections_mesh(setup, q, q)
        for i, x in enumerate(q):
            want = set(np.flatnonzero((lefts <= x) & (rights >= x)).tolist())
            assert set(reports[i].tolist()) == want

    def test_duplicate_free(self, dataset):
        setup, _, _, a, b = dataset
        reports, _ = report_intersections_mesh(setup, a, b)
        for r in reports:
            assert np.unique(r).size == r.size


class TestScaling:
    def test_counting_cost_scales_as_sqrt_n(self):
        ratios = {}
        for n in (256, 1024):
            lefts, rights = random_intervals(n, seed=2, domain=1000.0)
            setup = setup_interval_search(lefts, rights)
            rng = make_rng(3)
            a = rng.uniform(0, 1000, 64)
            b = a + 5.0
            _, steps = count_intersections_mesh(setup, a, b)
            ratios[n] = steps / setup.tree_lefts.size ** 0.5
        assert ratios[1024] / ratios[256] < 2.5


class TestLazyIntervalTree:
    """Only reporting uses the interval tree, so it is built on first use."""

    def _fresh(self):
        lefts, rights = random_intervals(300, seed=0, domain=100.0, mean_len=6.0)
        return setup_interval_search(lefts, rights)

    def test_counting_never_builds_it(self):
        setup = self._fresh()
        count_intersections_mesh(setup, np.array([10.0]), np.array([20.0]))
        interval_count_snapshot_arrays(setup)
        assert "itree" not in vars(setup) and "istruct" not in vars(setup)

    def test_outputs_match_an_eager_build(self, dataset):
        _, _, _, a, b = dataset
        eager, lazy = self._fresh(), self._fresh()
        assert eager.istruct is eager.istruct  # built up front, then cached
        assert "istruct" not in vars(lazy)
        counts_e, steps_e = count_intersections_mesh(eager, a, b)
        counts_l, steps_l = count_intersections_mesh(lazy, a, b)
        assert counts_l.tobytes() == counts_e.tobytes() and steps_l == steps_e
        reports_e, rsteps_e = report_intersections_mesh(eager, a, b)
        reports_l, rsteps_l = report_intersections_mesh(lazy, a, b)
        assert rsteps_l == rsteps_e
        assert [r.tobytes() for r in reports_l] == [r.tobytes() for r in reports_e]
        assert "istruct" in vars(lazy)
