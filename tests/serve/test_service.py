"""Restore fidelity: a snapshot-restored service answers exactly like a
fresh build running the same queries directly."""

import asyncio

import numpy as np
import pytest

from repro.serve import (
    BatchingServer,
    IntervalCountService,
    LinePolyService,
    PointLocationService,
    SnapshotError,
    read_snapshot,
    restore_service,
)


class TestRestoreFidelity:
    def test_pointloc_matches_fresh_build(self, pointloc_env):
        from repro.apps.pointloc import locate_points_mesh

        results, steps = pointloc_env["service"].run_batch(pointloc_env["queries"])
        direct = locate_points_mesh(
            pointloc_env["sites"], pointloc_env["queries"], seed=7
        )
        assert np.array_equal(np.array(results), direct.triangle)
        assert steps == direct.mesh_steps  # same engine size, same schedule
        assert any(t >= 0 for t in results)  # the load actually hits faces

    def test_linepoly_matches_fresh_build(self, linepoly_env):
        from repro.apps.linepoly import line_polyhedron_queries
        from repro.geometry.dk3d import build_dk_hierarchy

        results, steps = linepoly_env["service"].run_batch(linepoly_env["queries"])
        hier = build_dk_hierarchy(linepoly_env["points"], seed=7)
        direct = line_polyhedron_queries(
            hier, linepoly_env["queries"][:, 0:3], linepoly_env["queries"][:, 3:6]
        )
        packed = np.stack(results)
        assert np.array_equal(packed[:, 0].astype(bool), direct.intersects)
        assert np.array_equal(packed[:, 1].astype(np.int64), direct.tangent_left)
        assert np.array_equal(packed[:, 2].astype(np.int64), direct.tangent_right)
        assert np.array_equal(
            packed[:, 3:].reshape(-1, 2, 4), direct.planes, equal_nan=True
        )
        assert steps == direct.mesh_steps

    def test_interval_matches_fresh_build(self, interval_env):
        from repro.apps.interval_search import (
            count_intersections_mesh,
            setup_interval_search,
        )

        results, steps = interval_env["service"].run_batch(interval_env["queries"])
        setup = setup_interval_search(
            interval_env["lefts"], interval_env["rights"], k=2
        )
        counts, direct_steps = count_intersections_mesh(
            setup, interval_env["queries"][:, 0], interval_env["queries"][:, 1]
        )
        assert np.array_equal(np.array(results), counts)
        assert steps == direct_steps
        assert max(results) > 0  # the load actually intersects something

    def test_interval_counts_match_brute_force(self, interval_env):
        from repro.intervals.interval_tree import brute_force_intersections

        results, _ = interval_env["service"].run_batch(interval_env["queries"])
        for count, (a, b) in zip(results, interval_env["queries"]):
            expected = brute_force_intersections(
                interval_env["lefts"], interval_env["rights"], a, b
            ).size
            assert count == expected


class TestDispatchAndValidation:
    def test_restore_service_dispatch(self, all_envs):
        expected = {
            "pointloc": PointLocationService,
            "linepoly": LinePolyService,
            "interval": IntervalCountService,
        }
        for kind, env in all_envs.items():
            assert type(restore_service(env["path"])) is expected[kind]

    def test_restore_accepts_snapshot_object(self, pointloc_env):
        service = restore_service(read_snapshot(pointloc_env["path"]))
        assert isinstance(service, PointLocationService)
        assert service.snapshot_id == pointloc_env["snapshot"].snapshot_id

    def test_wrong_kind_rejected(self, pointloc_env, interval_env):
        with pytest.raises(SnapshotError, match="cannot back"):
            IntervalCountService(read_snapshot(pointloc_env["path"]))
        with pytest.raises(SnapshotError, match="cannot back"):
            PointLocationService(read_snapshot(interval_env["path"]))

    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    def test_query_width_enforced(self, kind, all_envs):
        service = all_envs[kind]["service"]
        bad = np.zeros((3, service.query_width + 1))
        with pytest.raises(ValueError, match="queries must be"):
            service.run_batch(bad)

    def test_canonicalization_is_dtype_insensitive(self, pointloc_env):
        service = pointloc_env["service"]
        q64 = pointloc_env["queries"][:4]
        as_list = [list(map(float, row)) for row in q64]
        r1, _ = service.run_batch(q64)
        r2, _ = service.run_batch(np.asarray(q64, dtype=np.float32).astype(np.float64))
        r3, _ = service.run_batch(as_list)
        assert np.array_equal(np.array(r1), np.array(r2))
        assert np.array_equal(np.array(r1), np.array(r3))


class TestIntervalRowValidation:
    """The count ``#{l <= b} - #{r < a}`` holds only for finite ``a <= b``:
    any other row is refused, never answered with a wrong count."""

    BAD = [[0.5, 0.4], [0.5, 0.49], [np.inf, 0.5], [0.2, np.inf], [np.nan, 0.5]]

    @pytest.mark.parametrize(
        "row", BAD, ids=["reversed", "reversed-close", "inf-a", "inf-b", "nan"]
    )
    def test_malformed_row_refused(self, interval_env, row):
        service = interval_env["service"]
        batch = np.vstack([interval_env["queries"][:3], [row]])
        with pytest.raises(ValueError, match="a <= b"):
            service.run_batch(batch)

    def test_point_interval_matches_brute_force(self, interval_env):
        from repro.intervals.interval_tree import brute_force_intersections

        a = interval_env["lefts"][:5]
        results, _ = interval_env["service"].run_batch(np.stack([a, a], axis=1))
        for count, x in zip(results, a):
            want = brute_force_intersections(
                interval_env["lefts"], interval_env["rights"], x, x
            ).size
            assert count == want > 0

    def test_bad_row_fails_only_its_caller(self, interval_env):
        good = interval_env["queries"][:3]
        server = BatchingServer(interval_env["service"], batch_size=4, deadline_s=0.005)

        async def run():
            tasks = [asyncio.ensure_future(server.submit(q)) for q in good]
            tasks.append(asyncio.ensure_future(server.submit([0.5, 0.4])))
            await server.drain()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(run())
        assert isinstance(outcomes[-1], ValueError)
        direct, _ = interval_env["service"].run_batch(good)
        assert np.array_equal(np.array(outcomes[:-1]), np.array(direct))


class TestLineRowValidation:
    """A line row needs a finite point and a direction whose length is
    finite and nonzero: the tangent keys divide by that length, so any
    other row would be answered from NaN keys."""

    BAD = [
        [5.0, 5.0, 5.0, 0.0, 0.0, 0.0],
        [np.nan, 0.0, 0.0, 1.0, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -np.inf, 0.0],
        [0.0, 0.0, 0.0, 1e-200, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1e200, 0.0, 0.0],
    ]

    @pytest.mark.parametrize(
        "row", BAD,
        ids=["zero-dir", "nan-p0", "inf-p0", "inf-dir", "dir-underflows", "dir-overflows"],
    )
    def test_malformed_row_refused(self, linepoly_env, row):
        service = linepoly_env["service"]
        batch = np.vstack([linepoly_env["queries"][:3], [row]])
        with pytest.raises(ValueError, match="line query 3"):
            service.run_batch(batch)

    def test_bad_row_fails_only_its_caller(self, linepoly_env):
        good = linepoly_env["queries"][:3]
        server = BatchingServer(linepoly_env["service"], batch_size=4, deadline_s=0.005)

        async def run():
            tasks = [asyncio.ensure_future(server.submit(q)) for q in good]
            tasks.append(asyncio.ensure_future(server.submit(self.BAD[0])))
            await server.drain()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(run())
        assert isinstance(outcomes[-1], ValueError)
        direct, _ = linepoly_env["service"].run_batch(good)
        assert np.array_equal(
            np.array(outcomes[:-1]), np.array(direct), equal_nan=True
        )
