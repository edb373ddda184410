"""The workloads: seeded inputs, set-up, serving, replay and checks.

Each workload builds its structure from raw seeded input, snapshots it
and restores a service (the set-up), serves an open-loop stream of
generated queries through the public serving API (the timed window), then
replays the same query sequence in fixed-size batches through
``run_batch`` and checks every answer against that replay and against a
brute-force oracle (outside the timed window).  The replay's mesh steps
are the paper's cost measure.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from measure import TimedPool, TimedService, open_loop, perf, poisson_due

#: rows per batch of the fixed replay
REPLAY_BATCH = 64
#: seed of each workload's data set; ``--seed`` draws the query stream, so
#: seeds differ in traffic, not in the structure being served
DATA_SEED = 20260


class Workload:
    """Set-up timing, open-loop serving, replay and answer comparison.

    The front ends keep their default 10 ms flush deadline.  The offered
    rate is a fixed choice per workload, not taken from recorded traffic;
    at it neither front end fills a 64-row batch before the deadline.
    """

    name = ""
    kind = ""
    RATE = 1000.0
    BATCH = 64
    #: batches run in a worker process, whose spans stay there
    remote = False

    def __init__(self, seed: int, workdir):
        salt = sum(map(ord, self.name))
        self.workdir = workdir
        self.rng = np.random.default_rng([int(seed), salt])
        self.make_inputs(np.random.default_rng([DATA_SEED, salt]))
        self._setups = 0

    # -- set-up: raw input -> ready to serve ---------------------------------

    def setup(self) -> dict:
        """Build, write, read and restore once; returns per-part seconds."""
        from repro.serve.service import restore_service
        from repro.serve.snapshot import read_snapshot, write_snapshot

        self._setups += 1
        path = self.workdir / f"{self.kind}-{self._setups}.npz"
        t0 = perf()
        arrays, meta = self.build()
        t1 = perf()
        write_snapshot(path, self.kind, arrays, meta)
        t2 = perf()
        snapshot = read_snapshot(path)
        t3 = perf()
        self.service = restore_service(snapshot)
        t4 = perf()
        self.snapshot_path = path
        return {
            "geometry.build_s": t1 - t0,
            "serve.snapshot.write_s": t2 - t1,
            "serve.snapshot.read_s": t3 - t2,
            "serve.service.restore_s": t4 - t3,
            "serve.pool.ready_s": 0.0,
        }

    def close(self) -> None:
        """Stop whatever the set-up started (nothing, for in-process work)."""

    # -- replay and checks ---------------------------------------------------

    def replay(self, rows: np.ndarray, batch: int = REPLAY_BATCH):
        """Fixed-size cuts of ``rows`` through ``run_batch``.

        Returns ``(results, per-batch steps, per-batch seconds)``.
        """
        results, steps, walls = [], [], []
        for lo in range(0, len(rows), batch):
            t0 = perf()
            res, st = self.service.run_batch(rows[lo:lo + batch])
            walls.append(perf() - t0)
            results.extend(res)
            steps.append(float(st))
        return results, np.asarray(steps), np.asarray(walls)

    def check(self, served: dict) -> dict:
        """Replay the served query sequence in fixed cuts and compare answers."""
        run = served["run"]
        rows, results, ok = run.rows, run.results, run.ok
        replayed, steps, _walls = self.replay(rows)
        wrong = int((self.mismatches(results, ok, replayed) | self.oracle_wrong(served)).sum())
        return {
            "attempted": len(rows),
            "failed": int(len(rows) - ok.sum()),
            "wrong": wrong,
            "steps": steps,
        }

    @staticmethod
    def mismatches(served, ok, replayed) -> np.ndarray:
        """Mask of answered queries whose bytes differ from the replay's."""
        bad = np.zeros(len(ok), dtype=bool)
        for i, (got, want) in enumerate(zip(served, replayed)):
            if ok[i]:
                got, want = np.asarray(got), np.asarray(want)
                bad[i] = got.dtype != want.dtype or got.tobytes() != want.tobytes()
        return bad

    def serve(self, seconds: float, traced: bool) -> dict:
        """Seeded Poisson arrivals into the front end, never waiting on replies."""
        rows, due = self.queries(seconds)
        server, proxy = self.make_server(traced)

        async def drive():
            run = await open_loop(server, rows, due)
            await server.close()
            return run

        run = asyncio.run(drive())
        return {
            "run": run,
            "batches": proxy.batches,
            "stats": dict(server.stats),
            "cache": server.cache.counters(),
            "spans": getattr(proxy, "spans", None) if traced else None,
        }


class PointlocStream(Workload):
    """Unique uniform points into a ``BatchingServer`` with a result cache."""

    name = "pointloc-stream"
    kind = "pointloc"
    SITES = 1024

    def make_inputs(self, rng) -> None:
        self.sites = rng.random((self.SITES, 2))

    def build(self):
        from repro.geometry.kirkpatrick import (
            build_kirkpatrick,
            kirkpatrick_snapshot_arrays,
            kirkpatrick_structure,
        )

        self.hier = build_kirkpatrick(self.sites, seed=DATA_SEED)
        structure, mu = kirkpatrick_structure(self.hier)
        return kirkpatrick_snapshot_arrays(structure, mu)

    def oracle_wrong(self, served: dict) -> np.ndarray:
        """Mask of located triangles that do not contain their point.

        Every query lies in the unit square, inside the bounding triangle,
        so ``-1`` (outside) is always wrong.
        """
        from repro.geometry.primitives import point_in_triangle

        run = served["run"]
        tri = np.array([int(r) if ok else 0 for r, ok in zip(run.results, run.ok)])
        corners = self.hier.points[self.hier.base_triangles[np.maximum(tri, 0)]]
        inside = point_in_triangle(
            run.rows, corners[:, 0], corners[:, 1], corners[:, 2]
        )
        return ((tri < 0) | ~inside) & run.ok

    def queries(self, seconds: float):
        due = poisson_due(self.rng, self.RATE, seconds)
        return self.rng.random((len(due), 2)), due

    def make_server(self, traced: bool):
        from repro.serve import BatchingServer, ResultCache

        proxy = TimedService(self.service, traced=traced)
        server = BatchingServer(
            proxy,
            batch_size=self.BATCH,
            cache=ResultCache(capacity=4096),
        )
        return server, proxy


class IntervalPoolZipf(Workload):
    """Open-loop Zipf repeats into a ``SupervisedServer`` over one worker.

    A pool batch costs the worker about 12 ms whatever its rows.  At
    300 q/s the worker is busy about 45% of the time and the supervisor
    about 10%, so both fit on two cores even when the host takes one of
    them; at 1000 q/s the worker was busy 70%, and a slower host turned
    that into queueing and doubled the batch tail.
    """

    name = "interval-pool-zipf"
    kind = "interval"
    RATE = 300.0
    INTERVALS = 8192
    DOMAIN = 1000.0
    CATALOG = 4096
    ZIPF_S = 1.1
    CACHE = 1024
    WORKERS = 1
    remote = True

    def make_inputs(self, rng) -> None:
        self.lefts = rng.uniform(0.0, self.DOMAIN, self.INTERVALS)
        self.rights = self.lefts + rng.exponential(1.0, self.INTERVALS)
        a = rng.uniform(0.0, self.DOMAIN, self.CATALOG)
        self.catalog = np.stack([a, a + rng.exponential(2.0, self.CATALOG)], axis=1)
        weight = 1.0 / np.arange(1, self.CATALOG + 1) ** self.ZIPF_S
        self.popularity = rng.permutation(weight / weight.sum())
        self.pool = None

    def build(self):
        from repro.apps.interval_search import (
            interval_count_snapshot_arrays,
            setup_interval_search,
        )

        return interval_count_snapshot_arrays(
            setup_interval_search(self.lefts, self.rights)
        )

    def setup(self) -> dict:
        """In-process set-up, then a pool whose workers all report idle."""
        from repro.serve import WorkerPool

        parts = super().setup()
        self.close()
        t0 = perf()
        self.pool = WorkerPool(self.snapshot_path, workers=self.WORKERS)
        while any(s != "idle" for s in self.pool.worker_states().values()):
            if "quarantined" in self.pool.worker_states().values() or perf() - t0 > 120:
                raise RuntimeError(f"pool not ready: {self.pool.worker_states()}")
            time.sleep(0.002)
        parts["serve.pool.ready_s"] = perf() - t0
        return parts

    def close(self) -> None:
        """Close the pool, then stop and reap multiprocessing's tracker process.

        Spawning the workers started the tracker; stopping it here leaves
        no process running after the benchmark and makes every set-up a
        cold start.
        """
        from multiprocessing import resource_tracker

        if self.pool is not None:
            self.pool.close()
            self.pool = None
        resource_tracker._resource_tracker._stop()

    def queries(self, seconds: float):
        due = poisson_due(self.rng, self.RATE, seconds)
        picks = self.rng.choice(self.CATALOG, size=len(due), p=self.popularity)
        return self.catalog[picks], due

    def make_server(self, traced: bool):
        from repro.serve import ResultCache, SupervisedServer

        proxy = TimedPool(self.pool)
        server = SupervisedServer(
            proxy,
            batch_size=self.BATCH,
            cache=ResultCache(capacity=self.CACHE),
        )
        return server, proxy

    def oracle_wrong(self, served: dict) -> np.ndarray:
        """Mask of counts that differ from a brute-force count."""
        run = served["run"]
        rows = run.rows
        want = np.empty(len(rows), dtype=np.int64)
        for lo in range(0, len(rows), 256):
            q = rows[lo:lo + 256]
            hit = (self.lefts[None, :] <= q[:, 1:2]) & (self.rights[None, :] >= q[:, 0:1])
            want[lo:lo + 256] = hit.sum(axis=1)
        got = np.array([int(r) if ok else -1 for r, ok in zip(run.results, run.ok)])
        return (got != want) & run.ok


WORKLOADS = {
    cls.name: cls for cls in (PointlocStream, IntervalPoolZipf)
}
