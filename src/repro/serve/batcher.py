"""Asyncio batching front-end: individual queries -> mesh-sized batches.

The mesh answers *batches* in ``O(sqrt(n))`` steps; a service endpoint
receives *individual* queries.  One accumulate-and-flush state machine
bridges the two for both front ends — :class:`BatchingServer` (batches
run in-process) and :class:`~repro.serve.supervisor.SupervisedServer`
(batches run on a worker pool):

* **idle** — no pending queries, nothing armed;
* **accumulating** — pending queries below ``batch_size``.  If the
  executor has a free slot, a flush is armed for the *next loop turn*,
  so every query that becomes due in the current turn (a whole
  :meth:`submit_many`, or the arrivals that piled up while the previous
  inline batch ran) rides one batch.  If every slot is busy, the
  queries keep accumulating until an in-flight batch lands, with a
  ``deadline_s`` timer as the upper bound on the wait;
* **flush** — triggered by reaching ``batch_size`` (``flush_size``), by
  a free executor (``flush_idle``), by the deadline (``flush_deadline``)
  or by an explicit :meth:`drain` (``flush_drain``); hands one batch to
  the executor and resolves every pending future when it lands.

Batches therefore grow only while the executor is busy: a trickle is
served one query at a time with no timer wait, and rising load packs
more rows into each batch (adaptive batching, as in Clipper, Crankshaw
et al., NSDI 2017).

Results are delivered through per-query futures, so callers just
``await server.submit(q)``.  A result cache (optional) short-circuits
known queries without touching the mesh; answers from a *faulted* batch
(fault injection or any other execution error) are delivered as
exceptions and are **never** written to the cache, so a fault cannot
poison later requests.

Two service-hygiene behaviors ride on the same state machine:

* **single-flight dedup** — when a cache is configured and an identical
  query is already pending, a new submit *coalesces* onto the in-flight
  future instead of occupying a second batch slot (counted in
  ``stats["coalesced"]`` and as ``result-cache:coalesced`` trace
  events).  A faulted leader propagates its typed exception to every
  coalesced follower — never a stale or partial result.  Leader and
  followers all await the slot through :func:`asyncio.shield`, so a
  cancelled caller (leader included) never cancels the others' answer.
* **shutdown fail-fast** — after :meth:`close` the server drains what it
  accepted, then rejects new submits synchronously with a typed
  :class:`~repro.serve.errors.ServerClosed`, so a submit racing a
  shutdown can never strand an unresolved future.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.mesh.faults import FaultInjector
from repro.serve.cache import ResultCache, note_coalesced, query_cache_key
from repro.serve.errors import ServerClosed
from repro.serve.service import MultisearchService

__all__ = ["BatchingServer"]


class FrontEnd:
    """The flush state machine shared by both front ends.

    Subclasses supply :meth:`_dispatch` — how one flushed batch runs —
    and ``slots``, how many dispatched batches may be in flight before
    arrivals accumulate.
    """

    def __init__(
        self,
        service: MultisearchService,
        batch_size: int,
        deadline_s: float,
        cache: ResultCache | None,
        slots: int = 1,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.service = service
        self.batch_size = int(batch_size)
        self.deadline_s = float(deadline_s)
        self.cache = cache
        self.slots = int(slots)
        #: (row, cache key or None, future) per pending query
        self._pending: list[tuple[np.ndarray, tuple | None, asyncio.Future]] = []
        self._soon: asyncio.Handle | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: dict[tuple[str, bytes], asyncio.Future] = {}
        self._running: set[asyncio.Future] = set()
        self._closed = False
        self.stats = {
            "queries": 0,
            "batches": 0,
            "flush_size": 0,
            "flush_idle": 0,
            "flush_deadline": 0,
            "flush_drain": 0,
            "faulted_batches": 0,
            "mesh_steps": 0.0,
            "cache_hits": 0,
            "coalesced": 0,
        }

    # -- submission ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosed(f"{type(self).__name__} is closed; submit rejected")

    async def submit(self, query):
        """Answer one query; resolves when its batch is served (or cached).

        Raises :class:`ServerClosed` synchronously once the server has
        been closed — a post-shutdown submit fails fast instead of
        queueing onto a batch that will never flush.  Execution failures
        (a faulted batch, pool rejections, retry exhaustion) surface as
        typed exceptions on the returned future.
        """
        self._check_open()
        row = self.service.canonical_queries(query)
        if row.shape[0] != 1:
            raise ValueError("submit() takes a single query; use submit_many()")
        return await self._submit_row(row[0])

    async def _submit_row(self, row: np.ndarray):
        """Enqueue one already-canonical ``(query_width,)`` row.

        The shared tail of :meth:`submit` and :meth:`submit_many`: rows
        arriving here have passed through ``canonical_queries`` exactly
        once, so the shape-ambiguous re-canonicalization of a bare row
        (a length-``d`` 1-D row reads as ``d`` scalar queries on a
        single-column service) can never happen.
        """
        self._check_open()
        self.stats["queries"] += 1
        key = None
        if self.cache is not None:
            key = query_cache_key(self.service.snapshot_id, row)
            found, value = self.cache.get(key)
            if found:
                self.stats["cache_hits"] += 1
                return value
            leader = self._inflight.get(key)
            if leader is not None and not leader.done():
                # single-flight: identical query already pending — ride
                # its future instead of burning a second batch slot
                self.stats["coalesced"] += 1
                note_coalesced()
                return await asyncio.shield(leader)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        self._pending.append((row, key, future))
        self._schedule()
        # shielded like a follower's: cancelling this caller must not
        # cancel the slot its coalesced followers are waiting on
        return await asyncio.shield(future)

    async def submit_many(self, queries) -> list:
        """Submit a batch of rows concurrently; exceptions propagate per query.

        The batch is canonicalized **exactly once**; rows then take the
        pre-canonical path (:meth:`_submit_row`) instead of being pushed
        back through ``canonical_queries`` one by one.
        """
        self._check_open()
        rows = self.service.canonical_queries(queries)
        return list(
            await asyncio.gather(*(self._submit_row(row) for row in rows))
        )

    async def drain(self):
        """Flush pending queries now and wait for every dispatched batch."""
        while self._pending or self._running:
            if self._pending:
                self._flush("drain")
            if self._running:
                await asyncio.gather(*self._running, return_exceptions=True)
        await asyncio.sleep(0)

    async def close(self):
        """Drain what was accepted, then reject all further submits.

        Idempotent.  Everything pending at the call resolves normally
        (or exceptionally, if its flush faults); everything submitted
        after raises :class:`ServerClosed` without creating a future.
        """
        self._closed = True
        await self.drain()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- the flush -----------------------------------------------------------

    def _schedule(self) -> None:
        """Arm the next flush for what is pending (idle -> accumulating)."""
        if not self._pending:
            return
        if len(self._pending) >= self.batch_size:
            self._flush("size")
        elif len(self._running) < self.slots:
            if self._soon is None:
                self._soon = asyncio.get_running_loop().call_soon(self._flush_idle)
        elif self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self.deadline_s, self._flush, "deadline"
            )

    def _flush_idle(self) -> None:
        self._soon = None
        if len(self._running) < self.slots:
            self._flush("idle")
        else:  # a size flush took the last slot this turn: wait for it
            self._schedule()

    def _landed(self, landing: asyncio.Future) -> None:
        self._running.discard(landing)
        self._schedule()

    def _flush(self, reason: str) -> None:
        for handle in (self._soon, self._timer):
            if handle is not None:
                handle.cancel()
        self._soon = self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats["batches"] += 1
        self.stats[f"flush_{reason}"] += 1
        rows = np.stack([row for row, _, _ in batch])
        try:
            landing = self._dispatch(batch, rows)
        except Exception as exc:
            self._fail(batch, exc)
            return
        if landing is not None:
            self._running.add(landing)
            landing.add_done_callback(self._landed)

    def _dispatch(self, batch, rows: np.ndarray) -> asyncio.Future | None:
        """Run or hand off one batch; return a future if it lands later.

        Resolves ``batch``'s futures through :meth:`_deliver` or
        :meth:`_fail`; an exception raised here fails the whole batch.
        """
        raise NotImplementedError

    def _deliver(self, batch, results, steps) -> None:
        self.stats["mesh_steps"] += float(steps)
        for (_, key, future), result in zip(batch, results):
            if key is not None:
                self.cache.put(key, result)
                self._inflight.pop(key, None)
            if not future.done():
                future.set_result(result)

    def _fail(self, batch, exc: BaseException) -> None:
        # a faulted batch resolves every future exceptionally and leaves
        # the cache untouched — no corrupt answer escapes
        self.stats["faulted_batches"] += 1
        for _, key, future in batch:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(exc)


class BatchingServer(FrontEnd):
    """Accumulate single queries into batches for a :class:`MultisearchService`.

    Each flush runs inline on a **fresh engine**, so the executor is
    never busy when a query arrives: every non-full batch flushes on the
    loop turn after its first query.

    Parameters
    ----------
    service:
        The restored service answering the batches.
    batch_size:
        Flush as soon as this many queries are pending.
    deadline_s:
        Upper bound on a query's wait while the executor is busy (see
        the module docstring); must be positive.
    cache:
        Optional :class:`ResultCache`; hits bypass the mesh entirely.
    fault_plans:
        Optional iterable of :class:`repro.mesh.faults.FaultPlan`; a
        fresh :class:`FaultInjector` is installed on every flush engine
        (chaos-testing hook).
    engine_kwargs:
        Extra keyword arguments for every flush engine (e.g.
        ``{"paranoid": True}`` so injected faults raise at the boundary
        they corrupt).
    vm_witness:
        Run a cycle-accurate pre-flight on every flush: the batch's
        query-rank permutation is shearsorted on a **paranoid**
        :class:`~repro.mesh.machine.MeshVM` sharing the flush's fault
        injector, so a ``vm_*`` fault in the step-level data movement
        the engine's charges stand on faults the whole batch *before*
        any answer is produced — every future resolves exceptionally
        and the cache is never touched (chaos-testing hook).
    """

    def __init__(
        self,
        service: MultisearchService,
        batch_size: int = 64,
        deadline_s: float = 0.01,
        cache: ResultCache | None = None,
        fault_plans=None,
        engine_kwargs: dict | None = None,
        vm_witness: bool = False,
    ):
        super().__init__(service, batch_size, deadline_s, cache)
        self.fault_plans = tuple(fault_plans) if fault_plans else ()
        self.engine_kwargs = dict(engine_kwargs or {})
        self.vm_witness = bool(vm_witness)
        self.stats["vm_witness_steps"] = 0

    def _dispatch(self, batch, rows: np.ndarray) -> None:
        engine = self.service.make_engine(rows.shape[0], **self.engine_kwargs)
        injector = None
        if self.fault_plans:
            injector = FaultInjector(*self.fault_plans).install(engine)
        if self.vm_witness:
            self._run_vm_witness(rows, injector)
        self._deliver(batch, *self.service.run_batch(rows, engine=engine))

    def _run_vm_witness(self, rows: np.ndarray, injector) -> None:
        """Shearsort the batch's query ranks on a paranoid cycle-accurate VM.

        The witness is the E10 substitution audit scaled down to one
        flush: the data movement underlying the sort the engine *charges*
        must actually execute, step by step, on this batch.  Installed
        ``vm_*`` fault plans fire here (the engine hooks never open a
        VM); the paranoid step-integrity check raises
        :class:`~repro.mesh.faults.InvariantViolation` at the corrupted
        step, so the flush's except-path resolves every future
        exceptionally before a corrupt answer can exist.  Ranks (not raw
        keys) are sorted so non-finite query values cannot fake a
        violation.
        """
        from repro.mesh.machine import MeshVM
        from repro.mesh.sorting import shearsort
        from repro.mesh.topology import MeshShape

        m = rows.shape[0]
        order = np.argsort(rows[:, 0], kind="stable")
        ranks = np.empty(m, dtype=np.int64)
        ranks[order] = np.arange(m, dtype=np.int64)
        vm = MeshVM(MeshShape.for_size(m).side, paranoid=True)
        if injector is not None:
            injector.install_vm(vm)
        vm.load_rowmajor("_witness_key", ranks, fill=m)
        shearsort(vm, "_witness_key", check=True)
        self.stats["vm_witness_steps"] += vm.steps
