"""Batching front-end: flush state machine, cache, and the acceptance
property — serving a load through any batch/deadline/cache configuration
is byte-identical to running the same queries as one direct batch."""

import asyncio

import numpy as np
import pytest

from repro.serve import (
    BatchingServer,
    ResultCache,
    drain_cache_counters,
    query_cache_key,
)


def _packed(results, kind):
    out = np.stack([np.asarray(r) for r in results])
    return out


def _equal(a, b, kind):
    if kind == "linepoly":  # planes carry NaN for intersecting lines
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


async def _serve(service, queries, **server_kwargs):
    server = BatchingServer(service, **server_kwargs)
    results = await server.submit_many(queries)
    await server.drain()
    return results, server


class TestByteIdentity:
    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    @pytest.mark.parametrize("batch_size", [1, 3, 16, 1000])
    @pytest.mark.parametrize("cached", [False, True])
    def test_any_batching_equals_one_direct_batch(
        self, kind, batch_size, cached, all_envs
    ):
        env = all_envs[kind]
        direct, _ = env["service"].run_batch(env["queries"])
        results, server = asyncio.run(
            _serve(
                env["service"],
                env["queries"],
                batch_size=batch_size,
                deadline_s=0.005,
                cache=ResultCache(256) if cached else None,
            )
        )
        assert _equal(
            _packed(results, kind), _packed(direct, kind), kind
        ), f"batched {kind} answers diverge at batch_size={batch_size}"
        assert server.stats["queries"] == len(env["queries"])

    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    def test_cached_resubmission_is_identical(self, kind, all_envs):
        env = all_envs[kind]

        async def twice():
            server = BatchingServer(
                env["service"], batch_size=8, deadline_s=0.005, cache=ResultCache(512)
            )
            first = await server.submit_many(env["queries"])
            batches_before = server.stats["batches"]
            steps_before = server.stats["mesh_steps"]
            second = await server.submit_many(env["queries"])
            return first, second, server, batches_before, steps_before

        first, second, server, batches_before, steps_before = asyncio.run(twice())
        assert _equal(_packed(first, kind), _packed(second, kind), kind)
        # the second pass never touched the mesh
        assert server.stats["batches"] == batches_before
        assert server.stats["mesh_steps"] == steps_before
        assert server.stats["cache_hits"] == len(env["queries"])


class TestFlushStateMachine:
    def test_size_flush(self, pointloc_env):
        results, server = asyncio.run(
            _serve(
                pointloc_env["service"],
                pointloc_env["queries"][:16],
                batch_size=4,
                deadline_s=60.0,  # never fires: size does all the flushing
            )
        )
        assert len(results) == 16
        assert server.stats["flush_size"] == 4
        assert server.stats["flush_deadline"] == 0
        assert server.pending == 0

    def test_lone_submit_flushes_on_next_loop_turn(self, pointloc_env):
        # the in-process executor is never busy, so a lone query does not
        # wait out the deadline: it flushes on the loop turn after it
        async def run():
            loop = asyncio.get_running_loop()
            server = BatchingServer(
                pointloc_env["service"], batch_size=1000, deadline_s=60.0
            )
            t0 = loop.time()
            task = asyncio.ensure_future(server.submit(pointloc_env["queries"][0]))
            await asyncio.sleep(0)  # the submit enqueues and arms the flush
            assert server.pending == 1
            await asyncio.sleep(0)  # the next turn flushes it
            assert server.pending == 0
            result = await asyncio.wait_for(task, timeout=5.0)
            return result, server, loop.time() - t0

        result, server, waited = asyncio.run(run())
        direct, _ = pointloc_env["service"].run_batch(pointloc_env["queries"][:1])
        assert np.array_equal(result, direct[0])
        assert waited < 5.0
        assert server.stats["flush_idle"] == server.stats["batches"] == 1
        assert server.stats["flush_deadline"] == 0

    def test_submit_many_rides_one_batch(self, pointloc_env):
        # every row of a submit_many is due in the same loop turn, so
        # they all ride the one idle flush that turn arms
        queries = pointloc_env["queries"][:6]
        results, server = asyncio.run(
            _serve(pointloc_env["service"], queries, batch_size=1000, deadline_s=60.0)
        )
        direct, steps = pointloc_env["service"].run_batch(queries)
        assert _equal(_packed(results, "pointloc"), _packed(direct, "pointloc"), "pointloc")
        assert server.stats["batches"] == server.stats["flush_idle"] == 1
        assert server.stats["flush_size"] == server.stats["flush_deadline"] == 0
        assert server.stats["mesh_steps"] == steps

    def test_drain_flush(self, pointloc_env):
        async def run():
            server = BatchingServer(
                pointloc_env["service"], batch_size=1000, deadline_s=60.0
            )
            tasks = [
                asyncio.ensure_future(server.submit(q))
                for q in pointloc_env["queries"][:5]
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            assert server.pending == 5
            await server.drain()
            return await asyncio.gather(*tasks), server

        results, server = asyncio.run(run())
        assert len(results) == 5
        assert server.stats["flush_drain"] == 1
        assert server.pending == 0

    def test_mesh_steps_accumulate(self, pointloc_env):
        _, server = asyncio.run(
            _serve(
                pointloc_env["service"],
                pointloc_env["queries"][:8],
                batch_size=4,
                deadline_s=60.0,
            )
        )
        direct, steps = pointloc_env["service"].run_batch(pointloc_env["queries"][:4])
        assert server.stats["batches"] == 2
        assert server.stats["mesh_steps"] == pytest.approx(2 * steps)

    def test_submit_rejects_multirow(self, pointloc_env):
        async def run():
            server = BatchingServer(pointloc_env["service"], batch_size=2)
            await server.submit(pointloc_env["queries"][:3])

        with pytest.raises(ValueError, match="single query"):
            asyncio.run(run())

    def test_constructor_validation(self, pointloc_env):
        with pytest.raises(ValueError, match="batch_size"):
            BatchingServer(pointloc_env["service"], batch_size=0)
        with pytest.raises(ValueError, match="deadline_s"):
            BatchingServer(pointloc_env["service"], deadline_s=0.0)


class TestCache:
    def test_lru_eviction(self, pointloc_env):
        cache = ResultCache(capacity=4)
        asyncio.run(
            _serve(
                pointloc_env["service"],
                pointloc_env["queries"][:10],
                batch_size=10,
                deadline_s=0.005,
                cache=cache,
            )
        )
        assert len(cache) == 4
        assert cache.evictions == 6
        counters = cache.counters()
        assert counters["entries"] == 4 and counters["misses"] == 10

    def test_keys_pinned_to_snapshot_id(self, pointloc_env, interval_env):
        # same query bytes against different snapshots must not collide
        q = np.array([0.5, 0.5])
        k1 = query_cache_key(pointloc_env["snapshot"].snapshot_id, q)
        k2 = query_cache_key(interval_env["snapshot"].snapshot_id, q)
        assert k1 != k2
        assert k1 == query_cache_key(
            pointloc_env["snapshot"].snapshot_id, q.astype(np.float32)
        )

    def test_process_wide_counters_drain(self, pointloc_env):
        drain_cache_counters()  # scope to this test
        asyncio.run(
            _serve(
                pointloc_env["service"],
                pointloc_env["queries"][:6],
                batch_size=3,
                deadline_s=0.005,
                cache=ResultCache(64),
            )
        )
        totals = drain_cache_counters()
        assert totals["misses"] == 6
        assert drain_cache_counters() == {"hits": 0, "misses": 0, "coalesced": 0}

    def test_hit_events_reach_trace_spans(self, pointloc_env):
        # cache hits/misses annotate the ambient span like the argsort memo
        from repro.mesh.trace import Tracer, ambient

        tracer = Tracer("serving")

        async def run():
            server = BatchingServer(
                pointloc_env["service"],
                batch_size=4,
                deadline_s=0.005,
                cache=ResultCache(64),
            )
            await server.submit_many(pointloc_env["queries"][:4])
            await server.submit_many(pointloc_env["queries"][:4])

        with ambient(tracer):
            asyncio.run(run())
        assert tracer.root.events.get("result-cache:miss") == 4
        assert tracer.root.events.get("result-cache:hit") == 4


class TestShutdown:
    def test_close_drains_then_rejects_typed(self, pointloc_env):
        """Post-close submits fail fast with ServerClosed; everything
        accepted before the close still resolves normally."""
        from repro.serve import ServerClosed

        async def run():
            server = BatchingServer(
                pointloc_env["service"], batch_size=1000, deadline_s=60.0
            )
            tasks = [
                asyncio.ensure_future(server.submit(q))
                for q in pointloc_env["queries"][:5]
            ]
            await asyncio.sleep(0)
            assert server.pending == 5
            await server.close()
            accepted = await asyncio.gather(*tasks)
            assert server.closed
            with pytest.raises(ServerClosed):
                await server.submit(pointloc_env["queries"][0])
            await server.close()  # idempotent
            return accepted, server

        accepted, server = asyncio.run(run())
        assert len(accepted) == 5
        assert server.pending == 0
        direct, _ = pointloc_env["service"].run_batch(pointloc_env["queries"][:5])
        assert _equal(_packed(accepted, "pointloc"), _packed(direct, "pointloc"), "pointloc")

    def test_submit_racing_close_never_strands_a_future(self, pointloc_env):
        """A submit issued after close() raises synchronously — it never
        creates a future that nothing will resolve."""
        from repro.serve import ServerClosed

        async def run():
            server = BatchingServer(
                pointloc_env["service"], batch_size=4, deadline_s=0.005
            )
            await server.close()
            for q in pointloc_env["queries"][:3]:
                with pytest.raises(ServerClosed):
                    await server.submit(q)
            assert server.pending == 0
            assert server.stats["queries"] == 0

        asyncio.run(run())


class TestSingleFlight:
    def test_concurrent_identical_misses_coalesce(self, pointloc_env):
        """N concurrent submits of one uncached query run one computation:
        one batch slot, N identical answers, N-1 coalesced."""
        q = pointloc_env["queries"][0]
        direct, _ = pointloc_env["service"].run_batch(q[None, :])

        async def run():
            server = BatchingServer(
                pointloc_env["service"],
                batch_size=8,
                deadline_s=0.01,
                cache=ResultCache(64),
            )
            results = await asyncio.gather(*(server.submit(q) for _ in range(6)))
            return results, server

        results, server = asyncio.run(run())
        assert all(np.array_equal(r, direct[0]) for r in results)
        assert server.stats["coalesced"] == 5
        assert server.stats["batches"] == 1
        # the flushed batch held one row, not six
        direct_steps = pointloc_env["service"].run_batch(q[None, :])[1]
        assert server.stats["mesh_steps"] == direct_steps

    def test_coalesced_events_reach_trace(self, pointloc_env):
        from repro.mesh.trace import Tracer, ambient

        q = pointloc_env["queries"][1]
        tracer = Tracer("serving")

        async def run():
            server = BatchingServer(
                pointloc_env["service"],
                batch_size=8,
                deadline_s=0.01,
                cache=ResultCache(64),
            )
            await asyncio.gather(*(server.submit(q) for _ in range(3)))

        with ambient(tracer):
            asyncio.run(run())
        assert tracer.root.events.get("result-cache:coalesced") == 2

    def test_faulted_leader_propagates_to_followers(self, interval_env):
        """Coalesced followers of a faulted batch get the same typed
        exception as the leader — never a stale or partial result."""
        from repro.mesh.faults import FaultPlan, InvariantViolation
        from repro.serve import restore_service

        q = interval_env["queries"][0]
        others = interval_env["queries"][1:4]
        plan = FaultPlan(seed=5, kind="perturb_sort_key", rate=1.0, max_faults=None)
        cache = ResultCache(64)

        async def run():
            server = BatchingServer(
                restore_service(interval_env["path"]),
                batch_size=8,
                deadline_s=0.01,
                cache=cache,
                fault_plans=[plan],
                engine_kwargs={"paranoid": True},
            )
            # three submits of q coalesce to one slot; the other rows give
            # the flush a real sort surface for the fault to corrupt
            subs = [server.submit(q) for _ in range(3)]
            subs += [server.submit(row) for row in others]
            settled = await asyncio.gather(*subs, return_exceptions=True)
            return settled, server

        settled, server = asyncio.run(run())
        assert len(settled) == 6
        assert all(isinstance(r, InvariantViolation) for r in settled)
        assert server.stats["coalesced"] == 2
        assert len(cache) == 0

    def test_cancelled_leader_does_not_cancel_followers(self, pointloc_env):
        """Cancelling the caller that owns a batch slot leaves its coalesced
        followers' answer intact, and the answer is still cached."""
        q = pointloc_env["queries"][2]
        direct, _ = pointloc_env["service"].run_batch(q[None, :])
        cache = ResultCache(64)

        async def run():
            server = BatchingServer(
                pointloc_env["service"], batch_size=8, deadline_s=60.0, cache=cache
            )
            leader = asyncio.ensure_future(server.submit(q))
            follower = asyncio.ensure_future(server.submit(q))
            await asyncio.sleep(0)  # both enqueue; the follower coalesces
            assert server.stats["coalesced"] == 1
            leader.cancel()
            return leader, await follower, server

        leader, result, server = asyncio.run(run())
        assert leader.cancelled()
        assert np.array_equal(result, direct[0])
        assert server.stats["batches"] == 1
        found, value = cache.get(query_cache_key(pointloc_env["snapshot"].snapshot_id, q))
        assert found and np.array_equal(value, direct[0])

    def test_distinct_queries_do_not_coalesce(self, pointloc_env):
        async def run():
            server = BatchingServer(
                pointloc_env["service"],
                batch_size=8,
                deadline_s=0.01,
                cache=ResultCache(64),
            )
            await server.submit_many(pointloc_env["queries"][:4])
            return server

        server = asyncio.run(run())
        assert server.stats["coalesced"] == 0
        assert server.stats["queries"] == 4
