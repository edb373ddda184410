"""Supervised serving front-end: the batcher, backed by a worker pool.

:class:`SupervisedServer` runs the same flush state machine as
:class:`~repro.serve.batcher.BatchingServer` — idle → accumulating →
flush, per-query futures, cache short-circuit, single-flight dedup,
typed shutdown — but hands each flushed batch to a
:class:`~repro.serve.pool.WorkerPool` instead of running it in-process.
The pool's ``n_workers`` are the executor's slots: while one is free, a
pending query flushes on the next loop turn; while all are busy, queries
accumulate until a batch lands (or ``deadline_s`` passes).

The mesh work therefore executes in worker *processes* that can crash,
hang, stall, or corrupt their replies without taking the event loop (or
any other query) down: the pool retries on healthy workers, restarts the
dead ones from the snapshot, and sheds load when the ingress bound is
hit.  Whatever happens, every accepted query's future resolves exactly
once — with the same bytes a direct in-process batch would produce, or
with a typed :class:`~repro.serve.errors.ServingError`.

Caching stays in the supervisor process, keyed on the pool's pinned
snapshot id.  Only *verified* replies (checksum-valid, from a clean
worker run) ever reach :meth:`ResultCache.put` — a corrupt or faulted
batch resolves exceptionally and leaves the cache untouched, exactly
like the in-process batcher's faulted-flush path.
"""

from __future__ import annotations

import asyncio
from functools import partial

import numpy as np

from repro.serve.batcher import FrontEnd
from repro.serve.cache import ResultCache
from repro.serve.errors import ServerClosed
from repro.serve.pool import WorkerPool

__all__ = ["SupervisedServer"]


class SupervisedServer(FrontEnd):
    """Accumulate single queries into batches answered by a worker pool.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` that answers flushed batches.  The
        server restores a lightweight local copy of the pool's service
        (construction-free, from the snapshot the pool already read and
        verified) purely for query canonicalization and cache keys — no
        engine ever runs in the supervisor process.
    batch_size / deadline_s:
        The flush state machine, identical to the in-process batcher.
    cache:
        Optional :class:`ResultCache`; hits bypass the pool entirely,
        and identical in-flight misses coalesce (single-flight).
    """

    def __init__(
        self,
        pool: WorkerPool,
        batch_size: int = 64,
        deadline_s: float = 0.01,
        cache: ResultCache | None = None,
    ):
        from repro.serve.service import restore_service

        service = restore_service(pool.snapshot, **pool.service_kwargs)
        super().__init__(service, batch_size, deadline_s, cache, slots=pool.n_workers)
        self.pool = pool

    def _dispatch(self, batch, rows: np.ndarray) -> asyncio.Future:
        # admission control / breaker rejection raises here: typed,
        # synchronous, before any work — every future in the batch learns why
        landing = asyncio.wrap_future(self.pool.submit_batch(rows))
        landing.add_done_callback(partial(self._on_batch_done, batch))
        return landing

    def _on_batch_done(self, batch, landing: asyncio.Future) -> None:
        if landing.cancelled():
            self._fail(batch, ServerClosed("batch cancelled"))
        elif landing.exception() is not None:
            # retries exhausted / pool closed / all workers quarantined:
            # typed exception out, cache untouched
            self._fail(batch, landing.exception())
        else:
            self._deliver(batch, *landing.result())

    async def close(self, close_pool: bool = False):
        """Drain accepted work, then reject all further submits (typed).

        Idempotent.  With ``close_pool`` the underlying worker pool shuts
        down too (its own close resolves any stragglers with
        :class:`ServerClosed` — nothing is ever silently dropped).
        """
        await super().close()
        if close_pool:
            await asyncio.get_running_loop().run_in_executor(None, self.pool.close)
