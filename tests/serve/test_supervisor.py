"""Supervised serving: the self-healing pool's acceptance properties.

The contract under test, from DESIGN.md §8:

* every accepted query's future resolves **exactly once** — with a
  result or a typed :class:`ServingError` — under crashes, hangs, slow
  workers, corrupt replies, load shedding, and shutdown;
* answered queries are **byte-identical** to a direct single-process
  batch, regardless of how many retries/hedges/restarts happened;
* a corrupt reply is discarded before deserialization and can never
  resolve a future or populate the result cache;
* supervision is free when idle: a fault-free supervised batch charges
  exactly the mesh steps the same batch charges in-process, and zero
  steps are charged when nothing is served.

Worker processes are forked from the preloaded forkserver and restore
from the session snapshot, so each pool start costs a fork + a
construction-free restore (the session's first pool also starts the
server); tests share queries and keep pools small (2 workers) to bound
wall-clock.
"""

import asyncio

import numpy as np
import pytest

from repro.mesh.faults import PROCESS_FAULT_KINDS, FaultPlan
from repro.serve import (
    BatchFailed,
    Overloaded,
    ResultCache,
    ServerClosed,
    ServingError,
    SupervisedServer,
    WorkerPool,
    WorkerUnavailable,
)
from repro.serve.cache import query_cache_key
from repro.serve.ipc import ReplyCorrupt, pack_reply, unpack_reply


def _fast_pool(path, **overrides):
    kwargs = dict(
        workers=2,
        batch_deadline_s=10.0,
        heartbeat_s=0.1,
        heartbeat_timeout_s=3.0,
        max_retries=4,
        backoff_s=0.02,
        restart_backoff_s=0.05,
    )
    kwargs.update(overrides)
    return WorkerPool(path, **kwargs)


async def _drive(pool, queries, **server_kwargs):
    server = SupervisedServer(pool, **server_kwargs)
    tasks = [asyncio.ensure_future(server.submit(q)) for q in queries]
    settled = await asyncio.gather(*tasks, return_exceptions=True)
    await server.close()
    return settled, server


class TestCleanPath:
    def test_byte_identity_and_exact_steps(self, pointloc_env):
        """A fault-free supervised batch = the direct batch, bit for bit,
        step for step — supervision charges nothing when idle."""
        queries = pointloc_env["queries"][:8]
        direct, direct_steps = pointloc_env["service"].run_batch(queries)
        with _fast_pool(pointloc_env["path"]) as pool:
            settled, server = asyncio.run(
                _drive(pool, queries, batch_size=8, deadline_s=0.01)
            )
            assert all(not isinstance(r, Exception) for r in settled)
            assert all(np.array_equal(r, d) for r, d in zip(settled, direct))
            # one batch of 8 -> exactly the direct charge, not a step more
            assert server.stats["mesh_steps"] == direct_steps
            assert pool.stats["mesh_steps"] == direct_steps
            assert pool.stats["retries"] == 0
            assert pool.stats["timeouts"] == 0
            assert pool.stats["shed"] == 0
            assert pool.stats["restarts"] == 0
            assert "dispatcher_errors" not in pool.stats

    def test_interval_service_through_pool(self, interval_env):
        queries = interval_env["queries"][:6]
        direct, _ = interval_env["service"].run_batch(queries)
        with _fast_pool(interval_env["path"]) as pool:
            settled, _ = asyncio.run(
                _drive(pool, queries, batch_size=6, deadline_s=0.01)
            )
            assert all(np.array_equal(r, d) for r, d in zip(settled, direct))

    def test_snapshot_id_pinned(self, pointloc_env):
        with _fast_pool(pointloc_env["path"]) as pool:
            assert pool.snapshot_id == pointloc_env["snapshot"].snapshot_id

    def test_supervisor_hashes_the_snapshot_once(self, pointloc_env, monkeypatch):
        """The pool's validating read is the only one in this process: the
        server restores its local service from the pool's snapshot."""
        from repro.serve import snapshot

        calls = []
        hash_arrays = snapshot.compute_snapshot_id

        def counting(kind, arrays):
            calls.append(kind)
            return hash_arrays(kind, arrays)

        monkeypatch.setattr(snapshot, "compute_snapshot_id", counting)
        with _fast_pool(pointloc_env["path"], workers=1) as pool:
            server = SupervisedServer(pool, batch_size=4)
            assert server.service.snapshot_id == pool.snapshot_id
            assert calls == ["pointloc"]

    def test_bad_snapshot_raises_at_pool_construction(self, tmp_path):
        from repro.serve import SnapshotError

        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"not a snapshot")
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            WorkerPool(bad, workers=1)


class TestCrashRecovery:
    def test_crash_retries_to_byte_identity(self, pointloc_env):
        """Workers dying mid-batch: retries land on healthy (or restarted)
        workers and the answers still match the direct run exactly."""
        queries = pointloc_env["queries"][:12]
        direct, _ = pointloc_env["service"].run_batch(queries)
        plan = FaultPlan(seed=3, kind="worker_crash", rate=0.3, max_faults=None)
        with _fast_pool(
            pointloc_env["path"], max_retries=6, fault_plans=[plan]
        ) as pool:
            settled, _ = asyncio.run(
                _drive(pool, queries, batch_size=4, deadline_s=0.01)
            )
            assert all(not isinstance(r, Exception) for r in settled)
            assert all(np.array_equal(r, d) for r, d in zip(settled, direct))
            assert pool.stats["crashes"] >= 1, "the fault never fired"
            assert pool.stats["retries"] >= 1

    def test_retry_exhaustion_is_typed(self, pointloc_env):
        """A fault that re-arms on every restart makes recovery impossible;
        the batch must fail *typed*, with the attempt reasons, not hang."""
        queries = pointloc_env["queries"][:4]
        plan = FaultPlan(seed=3, kind="worker_crash", rate=1.0, max_faults=None)
        with _fast_pool(
            pointloc_env["path"], max_retries=2, breaker_threshold=20,
            fault_plans=[plan],
        ) as pool:
            settled, _ = asyncio.run(
                _drive(pool, queries, batch_size=4, deadline_s=0.01)
            )
            assert all(isinstance(r, BatchFailed) for r in settled)
            assert all("crash" in str(r) for r in settled)

    def test_circuit_breaker_quarantines_crash_loop(self, pointloc_env):
        """Consecutive deaths without a clean reply trip the breaker:
        the pool degrades to typed WorkerUnavailable, never a crash loop."""
        plan = FaultPlan(seed=3, kind="worker_crash", rate=1.0, max_faults=None)
        with _fast_pool(
            pointloc_env["path"], workers=1, max_retries=10,
            breaker_threshold=2, fault_plans=[plan],
        ) as pool:
            settled, _ = asyncio.run(
                _drive(
                    pool, pointloc_env["queries"][:2],
                    batch_size=2, deadline_s=0.01,
                )
            )
            assert all(isinstance(r, ServingError) for r in settled)
            assert pool.stats["quarantined"] >= 1
            assert pool.worker_states() == {0: "quarantined"}
            with pytest.raises(WorkerUnavailable):
                pool.submit_batch(pointloc_env["queries"][:2])


class TestDeadline:
    def test_hung_worker_killed_at_deadline(self, pointloc_env):
        """A worker frozen mid-batch misses its reply deadline: it is killed
        and restarted once, its second hang trips the breaker, and the
        caller gets a typed error instead of waiting forever."""
        plan = FaultPlan(seed=3, kind="worker_hang", rate=1.0, max_faults=None)
        with _fast_pool(
            pointloc_env["path"], workers=1, batch_deadline_s=0.3,
            breaker_threshold=2, fault_plans=[plan],
        ) as pool:
            future = pool.submit_batch(pointloc_env["queries"][:2])
            with pytest.raises(WorkerUnavailable):
                future.result(timeout=60)
            # the heartbeat window (3 s) never elapses first: every hang
            # is caught by the 0.3 s deadline, so each is also a timeout
            assert pool.stats["timeouts"] == 2
            assert pool.stats["hangs"] == 2
            assert pool.stats["restarts"] == 1
            assert pool.stats["quarantined"] == 1
            assert pool.stats["retries"] == 2
            assert pool.stats["crashes"] == 0
            assert pool.worker_states() == {0: "quarantined"}
            assert "dispatcher_errors" not in pool.stats


class TestCorruptReplies:
    def test_corrupt_reply_never_resolves_or_caches(self, pointloc_env):
        """Every reply corrupt: the checksum rejects each one before
        deserialization — futures fail typed, the cache stays empty."""
        queries = pointloc_env["queries"][:4]
        plan = FaultPlan(
            seed=3, kind="worker_corrupt_reply", rate=1.0, max_faults=None
        )
        cache = ResultCache(64)
        with _fast_pool(
            pointloc_env["path"], max_retries=3, fault_plans=[plan]
        ) as pool:
            settled, _ = asyncio.run(
                _drive(pool, queries, batch_size=4, deadline_s=0.01, cache=cache)
            )
            assert all(isinstance(r, BatchFailed) for r in settled)
            assert all("corrupt_reply" in str(r) for r in settled)
            assert pool.stats["corrupt_replies"] >= 1
            assert len(cache) == 0, "a corrupt reply reached the cache"
            for q in queries:
                found, _ = cache.get(query_cache_key(pool.snapshot_id, q))
                assert not found

    def test_partial_corruption_recovers_clean(self, pointloc_env):
        queries = pointloc_env["queries"][:8]
        direct, _ = pointloc_env["service"].run_batch(queries)
        plan = FaultPlan(
            seed=5, kind="worker_corrupt_reply", rate=0.5, max_faults=None
        )
        cache = ResultCache(64)
        with _fast_pool(
            pointloc_env["path"], max_retries=8, fault_plans=[plan]
        ) as pool:
            settled, _ = asyncio.run(
                _drive(pool, queries, batch_size=4, deadline_s=0.01, cache=cache)
            )
            assert all(np.array_equal(r, d) for r, d in zip(settled, direct))
            # whatever was cached is the verified value
            for q, d in zip(queries, direct):
                found, got = cache.get(query_cache_key(pool.snapshot_id, q))
                assert found and np.array_equal(got, d)

    def test_checksum_rejects_before_unpickle(self):
        payload, digest = pack_reply([np.int64(3)], 12.0)
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        with pytest.raises(ReplyCorrupt):
            unpack_reply(corrupted, digest)
        results, steps = unpack_reply(payload, digest)
        assert results == [3] and steps == 12.0


class TestAdmissionControl:
    def test_overload_sheds_typed_before_any_work(self, pointloc_env):
        """Beyond max_pending, submits are rejected synchronously with
        Overloaded — no future exists, no work was queued."""
        queries = pointloc_env["queries"][:2]
        with _fast_pool(pointloc_env["path"], max_pending=1) as pool:
            accepted = [pool.submit_batch(queries)]
            shed = 0
            for _ in range(4):
                try:
                    accepted.append(pool.submit_batch(queries))
                except Overloaded:
                    shed += 1
            assert shed >= 1
            assert pool.stats["shed"] == shed
            # everything accepted still resolves exactly once
            for future in accepted:
                results, steps = future.result(timeout=60)
                assert len(results) == 2 and steps > 0

    def test_closed_pool_rejects_typed(self, pointloc_env):
        pool = _fast_pool(pointloc_env["path"])
        pool.close()
        with pytest.raises(ServerClosed):
            pool.submit_batch(pointloc_env["queries"][:2])
        pool.close()  # idempotent

    def test_server_close_rejects_after_drain(self, pointloc_env):
        async def run():
            with _fast_pool(pointloc_env["path"]) as pool:
                server = SupervisedServer(pool, batch_size=4, deadline_s=0.01)
                first = await server.submit_many(pointloc_env["queries"][:4])
                await server.close(close_pool=True)
                assert server.closed
                with pytest.raises(ServerClosed):
                    await server.submit(pointloc_env["queries"][0])
                return first

        first = asyncio.run(run())
        assert len(first) == 4


class TestSingleFlight:
    def test_identical_queries_coalesce(self, pointloc_env):
        """Five concurrent submits of one query = one batch slot, one
        mesh answer, five identical results."""
        q = pointloc_env["queries"][0]
        direct, _ = pointloc_env["service"].run_batch(q[None, :])

        async def run():
            with _fast_pool(pointloc_env["path"]) as pool:
                server = SupervisedServer(
                    pool, batch_size=8, deadline_s=0.02, cache=ResultCache(64)
                )
                results = await asyncio.gather(*(server.submit(q) for _ in range(5)))
                await server.close()
                return results, server

        results, server = asyncio.run(run())
        assert all(np.array_equal(r, direct[0]) for r in results)
        assert server.stats["coalesced"] == 4
        assert server.stats["queries"] == 5
        # only the leader occupied a batch slot
        assert server.stats["batches"] == 1
        assert server.stats["mesh_steps"] > 0

    def test_cancelled_leader_does_not_cancel_followers(self, pointloc_env):
        """Cancelling the leader's caller while its batch is on the pool
        leaves the coalesced follower's answer intact and cached."""
        q = pointloc_env["queries"][2]
        direct, _ = pointloc_env["service"].run_batch(q[None, :])
        cache = ResultCache(64)

        async def run():
            with _fast_pool(pointloc_env["path"]) as pool:
                server = SupervisedServer(
                    pool, batch_size=8, deadline_s=60.0, cache=cache
                )
                leader = asyncio.ensure_future(server.submit(q))
                follower = asyncio.ensure_future(server.submit(q))
                await asyncio.sleep(0)  # both enqueue; the follower coalesces
                assert server.stats["coalesced"] == 1
                leader.cancel()
                result = await asyncio.wait_for(follower, timeout=60)
                await server.close()
                return leader, result, server

        leader, result, server = asyncio.run(run())
        assert leader.cancelled()
        assert np.array_equal(result, direct[0])
        assert server.stats["batches"] == 1
        found, value = cache.get(query_cache_key(pointloc_env["snapshot"].snapshot_id, q))
        assert found and np.array_equal(value, direct[0])


class TestFlushWhenFree:
    """A free worker takes a batch at once; a busy one lets queries pile up."""

    @staticmethod
    async def _busy_worker_run(pool, queries, deadline_s, settle_s):
        server = SupervisedServer(pool, batch_size=64, deadline_s=deadline_s)
        first = asyncio.ensure_future(server.submit(queries[0]))
        await asyncio.sleep(0.05)  # out on the only worker, which stalls
        assert server.stats["flush_idle"] == 1 and server.pending == 0
        rest = [asyncio.ensure_future(server.submit(q)) for q in queries[1:]]
        await asyncio.sleep(0.05)
        # every slot busy: the new queries accumulate, no second batch yet
        assert server.pending == len(queries) - 1
        assert server.stats["batches"] == 1
        await asyncio.sleep(settle_s)
        settled_pending = server.pending
        results = await asyncio.wait_for(asyncio.gather(first, *rest), timeout=60)
        await server.close()
        return results, server, settled_pending

    def test_accumulated_queries_go_out_when_the_batch_lands(self, pointloc_env):
        queries = pointloc_env["queries"][:4]
        direct, _ = pointloc_env["service"].run_batch(queries)
        plan = FaultPlan(seed=1, kind="worker_slow", rate=1.0, max_faults=1)
        with _fast_pool(
            pointloc_env["path"], workers=1, fault_plans=[plan], slow_s=0.5
        ) as pool:
            results, server, _ = asyncio.run(
                self._busy_worker_run(pool, queries, deadline_s=60.0, settle_s=0.0)
            )
            assert pool.stats["batches"] == 2
        assert all(np.array_equal(r, d) for r, d in zip(results, direct))
        # the three accumulated queries rode one batch, flushed when the
        # worker came free (never by the 60 s deadline)
        assert server.stats["batches"] == server.stats["flush_idle"] == 2
        assert server.stats["flush_deadline"] == 0

    def test_deadline_bounds_the_wait_on_a_busy_worker(self, pointloc_env):
        queries = pointloc_env["queries"][:4]
        direct, _ = pointloc_env["service"].run_batch(queries)
        plan = FaultPlan(seed=1, kind="worker_slow", rate=1.0, max_faults=1)
        with _fast_pool(
            pointloc_env["path"], workers=1, fault_plans=[plan], slow_s=2.0
        ) as pool:
            results, server, settled_pending = asyncio.run(
                self._busy_worker_run(pool, queries, deadline_s=0.2, settle_s=0.4)
            )
        assert all(np.array_equal(r, d) for r, d in zip(results, direct))
        # the worker was still stalled when the deadline handed the three
        # accumulated queries to the pool as one batch
        assert settled_pending == 0
        assert server.stats["batches"] == 2
        assert server.stats["flush_idle"] == server.stats["flush_deadline"] == 1


class TestTraceEvents:
    def test_supervision_counters_reach_ambient_span(self, pointloc_env):
        from repro.mesh.trace import Tracer, ambient

        plan = FaultPlan(seed=3, kind="worker_crash", rate=0.5, max_faults=None)
        tracer = Tracer("supervision")
        with ambient(tracer):
            with _fast_pool(
                pointloc_env["path"], max_retries=8, breaker_threshold=20,
                fault_plans=[plan],
            ) as pool:
                settled, _ = asyncio.run(
                    _drive(
                        pool, pointloc_env["queries"][:8],
                        batch_size=4, deadline_s=0.01,
                    )
                )
                # exactly-once, typed-only — recovery itself is covered
                # elsewhere; this test checks the event wiring
                assert all(
                    not isinstance(r, Exception) or isinstance(r, ServingError)
                    for r in settled
                )
                assert pool.stats["retries"] >= 1
        events = tracer.root.events
        assert events.get("supervisor:retry", 0) >= 1
        assert events.get("supervisor:retry", 0) == pool.stats["retries"]
        if pool.stats["restarts"]:
            assert events.get("supervisor:restart", 0) == pool.stats["restarts"]


class TestFaultPlanSurface:
    def test_pool_rejects_engine_fault_kinds(self, pointloc_env):
        with pytest.raises(ValueError, match="process kinds"):
            WorkerPool(
                pointloc_env["path"],
                fault_plans=[FaultPlan(seed=1, kind="perturb_sort_key")],
            )

    def test_process_kinds_registered(self):
        for kind in PROCESS_FAULT_KINDS:
            FaultPlan(seed=1, kind=kind)  # must not raise
