"""Satellite regressions: canonical-query contract and non-finite cache
keys.

``submit_many`` used to re-canonicalize each row on its way through
``submit`` — a pre-canonicalized (m, 1) slice of a width-1 service
reshaped *again*, corrupting the batch.  The contract is now pinned:
canonicalization happens exactly once and is idempotent.  Cache keys
refuse non-finite queries outright (NaN != NaN would make the entry
unreachable *and* shadow a legitimate slot).
"""

import asyncio

import numpy as np
import pytest

from repro.serve import BatchingServer, ResultCache, query_cache_key


class TestCanonicalContract:
    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    def test_idempotent(self, kind, all_envs):
        service = all_envs[kind]["service"]
        once = service.canonical_queries(all_envs[kind]["queries"])
        twice = service.canonical_queries(once)
        assert twice.tobytes() == once.tobytes()
        assert twice.shape == once.shape
        assert twice.dtype == np.float64

    def test_one_row_forms(self, pointloc_env):
        service = pointloc_env["service"]
        row = service.canonical_queries(np.array([0.25, 0.75]))
        assert row.shape == (1, 2)
        with pytest.raises(ValueError, match="queries must be"):
            service.canonical_queries(np.array(0.5))  # 0-d -> (1,1): wrong width

    def test_submit_many_canonicalizes_exactly_once(self, interval_env, monkeypatch):
        """The regression: count canonical_queries calls during a
        submit_many and require exactly one, with answers byte-identical
        to the direct batch."""
        service = interval_env["service"]
        queries = interval_env["queries"][:8]
        direct, _ = service.run_batch(queries)

        calls = {"n": 0}
        orig = type(service).canonical_queries

        def counting(self, q):
            calls["n"] += 1
            return orig(self, q)

        monkeypatch.setattr(type(service), "canonical_queries", counting)

        async def run():
            server = BatchingServer(service, batch_size=8, deadline_s=0.005)
            results = await server.submit_many(queries)
            await server.drain()
            return results

        results = asyncio.run(run())
        # one call from submit_many, one from the flush's run_batch
        assert calls["n"] <= 2
        assert np.array_equal(np.stack(results), np.stack(direct))

    def test_submit_many_accepts_canonical_output(self, interval_env):
        """Feeding canonical_queries' own output back in must serve the
        same answers (the double-reshape bug corrupted exactly this)."""
        service = interval_env["service"]
        queries = interval_env["queries"][:6]
        direct, _ = service.run_batch(queries)

        async def run(q):
            server = BatchingServer(service, batch_size=8, deadline_s=0.005)
            results = await server.submit_many(q)
            await server.drain()
            return results

        results = asyncio.run(run(service.canonical_queries(queries)))
        assert np.array_equal(np.stack(results), np.stack(direct))


class TestNonFiniteCacheKeys:
    def test_key_refused(self, pointloc_env):
        sid = pointloc_env["snapshot"].snapshot_id
        assert query_cache_key(sid, np.array([0.5, np.nan])) is None
        assert query_cache_key(sid, np.array([np.inf, 0.5])) is None
        assert query_cache_key(sid, np.array([-np.inf, 0.5])) is None
        assert query_cache_key(sid, np.array([0.5, 0.5])) is not None

    def test_cache_treats_refused_key_as_miss(self):
        cache = ResultCache(8)
        hit, value = cache.get(None)
        assert (hit, value) == (False, None)
        cache.put(None, np.array([1.0]))  # no-op: nothing enters the cache
        assert len(cache) == 0
        assert cache.counters()["misses"] == 1

    def test_nan_queries_serve_without_polluting_cache(self, pointloc_env):
        """Non-finite rows are answered ``-1`` (located in no triangle),
        the cache stays clean and every stored key decodes to finite
        float64s."""
        service = pointloc_env["service"]
        qs = np.array([[0.5, 0.5], [np.nan, 0.5], [0.25, np.inf], [0.75, 0.75]])
        cache = ResultCache(64)

        async def run():
            server = BatchingServer(
                service, batch_size=4, deadline_s=0.005, cache=cache
            )
            results = await server.submit_many(qs)
            await server.drain()
            return results

        results = asyncio.run(run())
        assert len(results) == 4
        assert results[1] == results[2] == -1
        direct, _ = service.run_batch(qs[[0, 3]])
        assert [results[0], results[3]] == direct
        assert len(cache) == 2  # only the finite rows were cached
        for _sid, qbytes in cache.keys():
            decoded = np.frombuffer(qbytes, dtype=np.float64)
            assert np.isfinite(decoded).all()
