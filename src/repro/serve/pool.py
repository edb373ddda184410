"""Self-healing worker pool: N processes serving batches under a supervisor.

One hung flush or one crashed interpreter must not take the service
down.  This module splits serving across OS-process failure domains:

* **Workers** (:func:`_worker_main`): each process is forked from a
  ``forkserver`` that imported, once, every module a restore and its
  batches need (:data:`FORKSERVER_PRELOAD`), and starts without
  re-running the caller's ``__main__`` (:class:`_WorkerProcess`); it
  takes the supervisor's ``REPRO_*`` environment, restores a
  :class:`~repro.serve.service.MultisearchService` from the
  content-addressed snapshot (construction-free, hash-validated with the
  supervisor's expected id) and answers batches one at a time.  A
  background thread heartbeats on the reply pipe, so the supervisor can
  tell *frozen* from *busy*.  Replies travel checksummed
  (:mod:`repro.serve.ipc`), so corruption in transit is detectable
  end-to-end.
* **Supervisor** (:class:`WorkerPool`): a dispatcher thread owns all
  pipe I/O and the failure policy —

  - **crash** detection via pipe EOF / process sentinel (immediate);
  - **hang** detection via missed heartbeats and per-batch deadlines
    (the hung process is killed, the batch retried elsewhere);
  - **slow** mitigation via optional hedged re-dispatch: after
    ``hedge_s`` the batch is duplicated onto an idle worker and the
    first *valid* reply wins (the loser's late reply is dropped — every
    future resolves exactly once);
  - **retry** with exponential backoff, bounded by ``max_retries``;
    exhaustion resolves the batch with a typed
    :class:`~repro.serve.errors.BatchFailed`;
  - **restart** of dead workers from the snapshot, behind a per-slot
    circuit breaker: ``breaker_threshold`` consecutive deaths without a
    clean reply quarantines the slot, and the service degrades to the
    surviving pool instead of crash-looping (all slots quarantined →
    typed :class:`~repro.serve.errors.WorkerUnavailable`);
  - **admission control**: a bounded ingress queue; excess load is shed
    with a typed :class:`~repro.serve.errors.Overloaded` *before* any
    work or memory is committed.

The forkserver outlives any one pool, so restarts and later pools skip
the interpreter start and imports: a warm start is one fork plus the
hash-checked snapshot read.  An exit hook closes every open pool and
reaps the server, so no process outlives the supervisor.

Supervision is pure host-side bookkeeping: no engine exists in the
supervisor process, so zero mesh steps are charged unless a worker runs
a batch — and a fault-free supervised batch charges exactly the steps
the same batch charges in-process.  Retry/timeout/shed/restart decisions
are announced as zero-step trace events (``supervisor:*``) on the
ambient span.

Process-level chaos rides the same :class:`~repro.mesh.faults.FaultPlan`
machinery as the engine and VM layers: ``fault_plans`` with
``worker_crash`` / ``worker_hang`` / ``worker_slow`` /
``worker_corrupt_reply`` kinds are shipped to the workers (per-slot,
per-generation derived seeds) and fire inside the worker loop.
"""

from __future__ import annotations

import atexit
import functools
import io
import os
import signal
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import forkserver, get_context
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.context import ForkServerProcess

import numpy as np

from repro.mesh.faults import PROCESS_FAULT_KINDS, FaultInjector, FaultPlan
from repro.mesh.trace import emit_event
from repro.serve.errors import BatchFailed, Overloaded, ServerClosed, WorkerUnavailable
from repro.serve.ipc import ReplyCorrupt, decode_rows, encode_rows, pack_reply, unpack_reply
from repro.util.child import ensure_child_path

__all__ = ["WorkerPool", "POOL_STAT_KEYS"]

#: every counter a pool's ``stats`` dict carries (fixed set: dashboards
#: and tests can rely on the keys existing at zero)
POOL_STAT_KEYS = (
    "batches", "mesh_steps", "retries", "timeouts", "hedges", "late_replies",
    "corrupt_replies", "crashes", "hangs", "shed", "restarts", "quarantined",
    "heartbeats", "worker_errors",
)

_SLOW_SEED_STRIDE = 1009     # per-slot fault-seed derivation stride
_GENERATION_STRIDE = 9173    # per-restart-generation stride

#: workers are forks of a forkserver: a clean interpreter that imported
#: :data:`FORKSERVER_PRELOAD` and never held supervisor state, so each
#: worker is still its own failure domain but skips interpreter start,
#: imports and the caller's ``__main__`` (:class:`_WorkerProcess`)
START_METHOD = "forkserver"
#: what the forkserver imports once, before it forks any worker: the
#: pool, the snapshot reader, and the ``repro.apps`` modules behind every
#: service kind, so that no restore and no batch imports a ``repro``
#: module in the worker (scipy stays out: only construction imports it)
FORKSERVER_PRELOAD = (
    "repro.serve.pool",
    "repro.serve.service",
    "repro.serve.snapshot",
    "repro.apps.pointloc",
    "repro.apps.linepoly",
    "repro.apps.interval_search",
)
#: a forked worker holds the forkserver's environment from when the
#: server started, so the supervisor's variables with this prefix (set
#: and unset alike) travel with every start
ENV_PREFIX = "REPRO_"
#: silence a starting worker may keep before it is declared frozen (a
#: warm start is the fork and the snapshot read, milliseconds; a
#: process's first start also pays the forkserver's interpreter start
#: and preload imports)
READY_TIMEOUT_S = 60.0

#: pools not yet closed; the exit hook closes them before it stops the
#: forkserver, whose "alive" pipe every live worker holds
_OPEN_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _close_pools_and_forkserver() -> None:
    """Exit hook: close every open pool, then stop and reap the forkserver.

    Closing first matters twice over: a closed pool restarts no worker,
    and the server only exits once no worker holds its alive pipe.
    """
    for pool in list(_OPEN_POOLS):
        pool.close(timeout=0)
    forkserver._forkserver._stop()


# exit hooks run last-in first-out and multiprocessing registered its own
# on import, so this one runs first: before that hook terminates the
# workers, which a still-open pool's dispatcher would restart
atexit.register(_close_pools_and_forkserver)


# -- worker side -------------------------------------------------------------


def _adopt_env(env: dict[str, str]) -> None:
    """Make this process's ``REPRO_*`` variables exactly ``env``."""
    for name in [n for n in os.environ if n.startswith(ENV_PREFIX)]:
        if name not in env:
            del os.environ[name]
    os.environ.update(env)


def _worker_main(
    conn,
    env: dict[str, str],
    worker_id: int,
    snapshot_path: str,
    expected_snapshot_id: str | None,
    service_kwargs: dict,
    plan_dicts: list[dict],
    heartbeat_s: float,
    slow_s: float,
) -> None:
    """Worker process entry: restore, heartbeat, answer batches forever.

    ``env`` is the supervisor's ``REPRO_*`` environment at start; it
    replaces the forkserver's before anything reads it.  The restore is
    hash-validated against the supervisor's expected snapshot id — a torn
    or swapped file fails closed with a ``fatal`` message naming the id,
    which feeds the supervisor's circuit breaker instead of serving wrong
    answers.
    """
    send_lock = threading.Lock()

    def send(msg) -> bool:
        try:
            with send_lock:
                conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    try:
        _adopt_env(env)
        from repro.serve.service import restore_service
        from repro.serve.snapshot import read_snapshot

        snapshot = read_snapshot(snapshot_path, expected_id=expected_snapshot_id)
        service = restore_service(snapshot, **service_kwargs)
    except BaseException as exc:  # noqa: BLE001 - report then die, never serve
        send(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        conn.close()
        os._exit(70)

    site = f"worker:{worker_id}"
    injector = (
        FaultInjector(*[FaultPlan.from_dict(d) for d in plan_dicts])
        if plan_dicts
        else None
    )
    send(("ready", worker_id, service.snapshot_id))

    stop_hb = threading.Event()

    def heartbeat() -> None:
        seq = 0
        while not stop_hb.wait(heartbeat_s):
            seq += 1
            if not send(("hb", worker_id, seq)):
                return

    threading.Thread(target=heartbeat, daemon=True, name="hb").start()

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, batch_id, shape, data = msg
        rows = decode_rows(shape, data)
        fired = injector.on_worker_batch(site) if injector is not None else []
        if "worker_crash" in fired:
            os._exit(139)  # die without unwinding: no reply, EOF at the parent
        if "worker_hang" in fired:
            # freeze the whole process, heartbeat thread included — the
            # supervisor must notice via deadline/heartbeat, not be told
            os.kill(os.getpid(), signal.SIGSTOP)
        if "worker_slow" in fired:
            time.sleep(slow_s)
        try:
            results, steps = service.run_batch(rows)
        except Exception as exc:  # noqa: BLE001 - report, stay alive
            send(("reply_err", worker_id, batch_id, f"{type(exc).__name__}: {exc}"))
            continue
        payload, digest = pack_reply(results, steps)
        if injector is not None:
            payload = injector.on_reply_bytes(payload, site)
        send(("reply", worker_id, batch_id, payload, digest))
    stop_hb.set()
    conn.close()


# -- supervisor side ---------------------------------------------------------


@functools.cache
def _worker_popen() -> type:
    """The stdlib forkserver launcher, minus re-running ``__main__``.

    ``spawn.prepare`` re-executes the caller's script (or ``-m`` module)
    in every child that is told its path, and the forkserver's own
    ``'__main__'`` preload cannot stop it (CPython 3.8–3.13 filter for a
    ``main_path`` key the preparation data no longer has).  A worker's
    target and arguments live in preloaded modules, so its preparation
    data drops the two entries that name the caller's script or module;
    the rest of ``_launch`` is the stdlib one, unchanged across those
    versions.  Built on the first start, where ``ForkServerProcess``
    imports its own launcher, so the supervisor imports what a stdlib
    start would, when it would (importing it with the pool moved the
    supervisor's peak RSS by about 0.8 MB).
    """
    from multiprocessing import popen_forkserver, reduction, spawn, util
    from multiprocessing.context import set_spawning_popen

    class WorkerPopen(popen_forkserver.Popen):
        def _launch(self, process_obj):
            prep_data = spawn.get_preparation_data(process_obj._name)
            prep_data.pop("init_main_from_path", None)
            prep_data.pop("init_main_from_name", None)
            buf = io.BytesIO()
            set_spawning_popen(self)
            try:
                reduction.dump(prep_data, buf)
                reduction.dump(process_obj, buf)
            finally:
                set_spawning_popen(None)
            self.sentinel, w = forkserver.connect_to_new_process(self._fds)
            # the write end's duplicate tells the child its parent is alive
            _parent_w = os.dup(w)
            self.finalizer = util.Finalize(self, util.close_fds, (_parent_w, self.sentinel))
            with open(w, "wb", closefd=True) as f:
                f.write(buf.getbuffer())
            self.pid = forkserver.read_signed(self.sentinel)

    return WorkerPopen


class _WorkerProcess(ForkServerProcess):
    """A pool worker: a forkserver process started by :func:`_worker_popen`.

    Scoped to the pool's own workers; every other process, started by
    the caller or by another thread meanwhile, keeps the stdlib launch.
    """

    @staticmethod
    def _Popen(process_obj):
        return _worker_popen()(process_obj)


@dataclass
class _Worker:
    """One pool slot's supervision state."""

    slot: int
    process: object = None
    conn: object = None
    state: str = "starting"  # starting | idle | busy | dead | quarantined
    generation: int = 0
    busy_batch: int | None = None
    last_hb: float = 0.0
    started_at: float = 0.0
    consecutive_failures: int = 0
    restart_at: float | None = None

    @property
    def alive_ish(self) -> bool:
        return self.state in ("starting", "idle", "busy")


@dataclass
class _Batch:
    """One accepted batch's scheduling state."""

    batch_id: int
    shape: tuple
    data: bytes
    future: Future = field(default_factory=Future)
    failed_attempts: int = 0
    reasons: list[str] = field(default_factory=list)
    #: slot -> dispatch time of every live assignment (hedges add a second)
    assignments: dict[int, float] = field(default_factory=dict)
    first_dispatch: float | None = None
    not_before: float = 0.0
    hedged: bool = False


class WorkerPool:
    """A supervised pool of snapshot-restored serving workers.

    Parameters
    ----------
    snapshot_path:
        The snapshot file every worker restores from.  Read once in
        the supervisor (hash-validated) and kept as ``snapshot``; its id
        is the one workers re-validate against on every (re)start.
    service_kwargs:
        Extra keyword arguments for :func:`repro.serve.restore_service`.
    workers:
        Pool size (failure domains).
    batch_deadline_s:
        Per-dispatch reply deadline; exceeded → the worker is presumed
        hung, killed, and the batch retried elsewhere.
    heartbeat_s / heartbeat_timeout_s:
        Worker heartbeat period, and the silence window after which a
        non-replying worker is declared frozen.
    max_retries:
        Failed dispatches a batch may accumulate before it resolves with
        :class:`BatchFailed`.
    backoff_s:
        Base retry delay, doubled per failed attempt.
    hedge_s:
        Optional: duplicate a still-pending batch onto an idle worker
        after this long; first valid reply wins.  ``None`` disables.
    max_pending:
        Bound on queued + in-flight batches; beyond it ``submit_batch``
        sheds with :class:`Overloaded`.
    breaker_threshold:
        Consecutive worker deaths (without one clean reply) that
        quarantine the slot.
    restart_backoff_s:
        Base delay before restarting a dead worker, doubled per
        consecutive failure.
    fault_plans:
        Process-level :class:`FaultPlan`\\ s (``worker_*`` kinds only)
        shipped to workers — the chaos hook.  Per-slot, per-generation
        seeds are derived so restarted workers draw fresh schedules.
    slow_s:
        Stall length an injected ``worker_slow`` sleeps for.
    """

    def __init__(
        self,
        snapshot_path,
        service_kwargs: dict | None = None,
        workers: int = 2,
        *,
        batch_deadline_s: float = 10.0,
        heartbeat_s: float = 0.25,
        heartbeat_timeout_s: float = 5.0,
        max_retries: int = 3,
        backoff_s: float = 0.05,
        hedge_s: float | None = None,
        max_pending: int = 64,
        breaker_threshold: int = 3,
        restart_backoff_s: float = 0.1,
        fault_plans=(),
        slow_s: float = 1.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        plans = tuple(fault_plans)
        bad = [p.kind for p in plans if p.kind not in PROCESS_FAULT_KINDS]
        if bad:
            raise ValueError(
                f"WorkerPool fault plans must use process kinds "
                f"{PROCESS_FAULT_KINDS}; got {bad}"
            )
        from repro.serve.snapshot import read_snapshot

        self.snapshot_path = str(snapshot_path)
        # one validating read up front: a bad file fails fast here, the id
        # pins every worker restore (and the result cache) to these bytes,
        # and a supervisor restores its local service from this snapshot
        self.snapshot = read_snapshot(self.snapshot_path)
        self.snapshot_id = self.snapshot.snapshot_id
        self.service_kwargs = dict(service_kwargs or {})
        self.n_workers = int(workers)
        self.batch_deadline_s = float(batch_deadline_s)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.hedge_s = None if hedge_s is None else float(hedge_s)
        self.max_pending = int(max_pending)
        self.breaker_threshold = int(breaker_threshold)
        self.restart_backoff_s = float(restart_backoff_s)
        self.fault_plans = plans
        self.slow_s = float(slow_s)
        self._ctx = get_context(START_METHOD)
        self._ctx.set_forkserver_preload(list(FORKSERVER_PRELOAD))

        self.stats: dict[str, float] = {key: 0 for key in POOL_STAT_KEYS}
        self._lock = threading.RLock()
        self._queue: deque[_Batch] = deque()
        self._inflight: dict[int, _Batch] = {}
        self._workers: dict[int, _Worker] = {}
        self._next_batch_id = 0
        self._closed = False
        self._stopping = threading.Event()
        self._wakeup_r, self._wakeup_w = os.pipe()

        ensure_child_path()
        for slot in range(self.n_workers):
            self._workers[slot] = _Worker(slot=slot)
            self._spawn(self._workers[slot])
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="pool-dispatcher"
        )
        self._dispatcher.start()
        _OPEN_POOLS.add(self)

    # -- public API ----------------------------------------------------------

    def submit_batch(self, rows: np.ndarray) -> Future:
        """Submit one batch of canonical query rows; thread-safe.

        Returns a :class:`concurrent.futures.Future` resolving to
        ``(results, mesh_steps)``.  Raises :class:`ServerClosed` /
        :class:`WorkerUnavailable` / :class:`Overloaded` synchronously —
        a rejected submit never creates a future.
        """
        shape, data = encode_rows(np.asarray(rows))
        with self._lock:
            if self._closed:
                raise ServerClosed("pool is closed; no new batches accepted")
            if all(w.state == "quarantined" for w in self._workers.values()):
                raise WorkerUnavailable(
                    "every worker slot is quarantined (circuit breaker open); "
                    f"snapshot {self.snapshot_id[:12]}… cannot be served"
                )
            if len(self._queue) + len(self._inflight) >= self.max_pending:
                self.stats["shed"] += 1
                emit_event("supervisor:shed")
                raise Overloaded(
                    f"ingress queue full ({self.max_pending} batches pending); "
                    "load shed"
                )
            self._next_batch_id += 1
            batch = _Batch(batch_id=self._next_batch_id, shape=shape, data=data)
            self._queue.append(batch)
            self.stats["batches"] += 1
        self._wake()
        return batch.future

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._queue) + len(self._inflight)

    def worker_states(self) -> dict[int, str]:
        with self._lock:
            return {slot: w.state for slot, w in self._workers.items()}

    def healthy_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.alive_ish)

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting, drain in-flight work, shut every worker down.

        Batches still unresolved when the drain window expires resolve
        with :class:`ServerClosed` — never silently dropped.  Idempotent.
        """
        with self._lock:
            if self._closed and self._stopping.is_set():
                return
            self._closed = True
        _OPEN_POOLS.discard(self)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._queue and not self._inflight:
                    break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        self._stopping.set()
        self._wake()
        self._dispatcher.join(timeout=5.0)
        with self._lock:
            leftovers = list(self._queue) + list(self._inflight.values())
            self._queue.clear()
            self._inflight.clear()
            for batch in leftovers:
                self._resolve_error(
                    batch, ServerClosed("pool closed while the batch was pending")
                )
            for worker in self._workers.values():
                self._shutdown_worker(worker)
        for fd in (self._wakeup_r, self._wakeup_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- spawning / teardown -------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        plan_dicts = [
            dict(
                p.to_dict(),
                seed=p.seed
                + _SLOW_SEED_STRIDE * worker.slot
                + _GENERATION_STRIDE * worker.generation,
            )
            for p in self.fault_plans
        ]
        proc = _WorkerProcess(
            target=_worker_main,
            args=(
                child_conn,
                {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)},
                worker.slot,
                self.snapshot_path,
                self.snapshot_id,
                self.service_kwargs,
                plan_dicts,
                self.heartbeat_s,
                self.slow_s,
            ),
            daemon=True,
            name=f"serve-worker-{worker.slot}",
        )
        proc.start()
        child_conn.close()
        now = time.monotonic()
        worker.process = proc
        worker.conn = parent_conn
        worker.state = "starting"
        worker.busy_batch = None
        worker.started_at = now
        worker.last_hb = now
        worker.restart_at = None

    def _shutdown_worker(self, worker: _Worker, grace: float = 1.0) -> None:
        proc, conn = worker.process, worker.conn
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if proc is not None and proc.is_alive():
            proc.join(grace)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if conn is not None:
            conn.close()
        worker.process = worker.conn = None

    def _wake(self) -> None:
        try:
            os.write(self._wakeup_w, b"x")
        except OSError:
            pass

    # -- dispatcher loop -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                self._dispatch_once()
            except Exception as exc:  # noqa: BLE001 - supervision must survive
                self.stats["worker_errors"] += 1
                self._note_dispatcher_error(exc)

    def _note_dispatcher_error(self, exc: Exception) -> None:
        # a supervisor bug must not strand futures silently; keep the last
        # few for post-mortems (tests assert this stays empty)
        errors = self.stats.setdefault("dispatcher_errors", [])  # type: ignore[arg-type]
        if isinstance(errors, list) and len(errors) < 8:
            errors.append(f"{type(exc).__name__}: {exc}")

    def _dispatch_once(self) -> None:
        with self._lock:
            self._assign_locked()
            waitables = [self._wakeup_r]
            by_conn = {}
            by_sentinel = {}
            for worker in self._workers.values():
                if worker.conn is not None and worker.state != "quarantined":
                    waitables.append(worker.conn)
                    by_conn[worker.conn] = worker
                if (
                    worker.process is not None
                    and worker.state in ("starting", "idle", "busy")
                ):
                    waitables.append(worker.process.sentinel)
                    by_sentinel[worker.process.sentinel] = worker
            poll = self._next_timer_locked()
        try:
            ready = _conn_wait(waitables, timeout=poll)
        except OSError:
            ready = []
        for item in ready:
            if item == self._wakeup_r:
                try:
                    os.read(self._wakeup_r, 4096)
                except OSError:
                    pass
                continue
            with self._lock:
                worker = by_conn.get(item)
                if worker is not None:
                    self._drain_conn_locked(worker)
                    continue
                worker = by_sentinel.get(item)
                if worker is not None and worker.state in ("starting", "idle", "busy"):
                    self._mark_dead_locked(worker, reason="crash")
        with self._lock:
            self._check_deadlines_locked()
            self._check_heartbeats_locked()
            self._restart_due_locked()
            self._fail_unservable_locked()

    def _next_timer_locked(self) -> float:
        now = time.monotonic()
        horizon = now + 0.25
        for batch in self._inflight.values():
            for t0 in batch.assignments.values():
                horizon = min(horizon, t0 + self.batch_deadline_s)
            if (
                self.hedge_s is not None
                and not batch.hedged
                and batch.first_dispatch is not None
            ):
                horizon = min(horizon, batch.first_dispatch + self.hedge_s)
        for batch in self._queue:
            if batch.not_before > now:
                horizon = min(horizon, batch.not_before)
        for worker in self._workers.values():
            if worker.restart_at is not None:
                horizon = min(horizon, worker.restart_at)
            if worker.alive_ish:
                horizon = min(horizon, worker.last_hb + self.heartbeat_timeout_s)
        return max(0.005, horizon - now)

    # -- assignment ----------------------------------------------------------

    def _assign_locked(self) -> None:
        now = time.monotonic()
        idle = deque(
            w for w in self._workers.values() if w.state == "idle"
        )
        # first: queued batches (retries keep their backoff holds)
        still_held: list[_Batch] = []
        while self._queue and idle:
            batch = self._queue.popleft()
            if batch.future.done():
                continue  # e.g. already failed typed
            if batch.not_before > now:
                still_held.append(batch)
                continue
            worker = idle.popleft()
            self._dispatch_to_locked(batch, worker)
        for batch in still_held:
            self._queue.appendleft(batch)
        # then: hedges for slow in-flight batches
        if self.hedge_s is None or not idle:
            return
        for batch in list(self._inflight.values()):
            if not idle:
                break
            if (
                batch.hedged
                or batch.future.done()
                or batch.first_dispatch is None
                or now - batch.first_dispatch < self.hedge_s
                or not batch.assignments
            ):
                continue
            worker = idle.popleft()
            batch.hedged = True
            self.stats["hedges"] += 1
            emit_event("supervisor:hedge")
            self._dispatch_to_locked(batch, worker, hedge=True)

    def _dispatch_to_locked(
        self, batch: _Batch, worker: _Worker, hedge: bool = False
    ) -> None:
        now = time.monotonic()
        try:
            worker.conn.send(("batch", batch.batch_id, batch.shape, batch.data))
        except (BrokenPipeError, OSError):
            self._mark_dead_locked(worker, reason="crash")
            if not hedge:
                self._queue.appendleft(batch)
            return
        worker.state = "busy"
        worker.busy_batch = batch.batch_id
        batch.assignments[worker.slot] = now
        if batch.first_dispatch is None:
            batch.first_dispatch = now
        self._inflight[batch.batch_id] = batch

    # -- message handling ----------------------------------------------------

    def _drain_conn_locked(self, worker: _Worker) -> None:
        while worker.conn is not None:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                if worker.state in ("starting", "idle", "busy"):
                    self._mark_dead_locked(worker, reason="crash")
                return
            tag = msg[0]
            if tag == "hb":
                worker.last_hb = time.monotonic()
                self.stats["heartbeats"] += 1
            elif tag == "ready":
                worker.last_hb = time.monotonic()
                if worker.state == "starting":
                    worker.state = "idle"
            elif tag == "reply":
                self._on_reply_locked(worker, msg[2], msg[3], msg[4])
            elif tag == "reply_err":
                self._on_reply_err_locked(worker, msg[2], msg[3])
            elif tag == "fatal":
                self.stats["worker_errors"] += 1
                self._mark_dead_locked(worker, reason=f"fatal:{msg[2]}")

    def _on_reply_locked(
        self, worker: _Worker, batch_id: int, payload: bytes, digest: str
    ) -> None:
        worker.last_hb = time.monotonic()
        worker.state = "idle"
        worker.busy_batch = None
        batch = self._inflight.get(batch_id)
        if batch is None or batch.future.done():
            self.stats["late_replies"] += 1
            return
        try:
            results, steps = unpack_reply(payload, digest)
        except ReplyCorrupt as exc:
            # the end-to-end check fired: discard, never resolve, retry
            self.stats["corrupt_replies"] += 1
            emit_event("supervisor:corrupt-reply")
            batch.assignments.pop(worker.slot, None)
            self._attempt_failed_locked(batch, f"corrupt_reply ({exc})")
            return
        worker.consecutive_failures = 0  # one clean reply closes the breaker
        batch.assignments.pop(worker.slot, None)
        self._inflight.pop(batch_id, None)
        self.stats["mesh_steps"] += float(steps)
        batch.future.set_result((results, float(steps)))

    def _on_reply_err_locked(self, worker: _Worker, batch_id: int, error: str) -> None:
        worker.last_hb = time.monotonic()
        worker.state = "idle"
        worker.busy_batch = None
        self.stats["worker_errors"] += 1
        batch = self._inflight.get(batch_id)
        if batch is None or batch.future.done():
            self.stats["late_replies"] += 1
            return
        batch.assignments.pop(worker.slot, None)
        self._attempt_failed_locked(batch, f"error:{error}")

    # -- failure policy ------------------------------------------------------

    def _attempt_failed_locked(self, batch: _Batch, reason: str) -> None:
        """One dispatch of ``batch`` failed; retry, wait on a hedge, or give up."""
        batch.reasons.append(reason)
        batch.failed_attempts += 1
        if batch.assignments:
            return  # a hedge twin is still out — let it race
        self._inflight.pop(batch.batch_id, None)
        if batch.failed_attempts > self.max_retries:
            self._resolve_error(
                batch,
                BatchFailed(
                    f"batch {batch.batch_id} failed after "
                    f"{batch.failed_attempts} attempt(s)",
                    reasons=tuple(batch.reasons),
                ),
            )
            return
        self.stats["retries"] += 1
        emit_event("supervisor:retry")
        hold = self.backoff_s * (2 ** (batch.failed_attempts - 1))
        batch.not_before = time.monotonic() + hold
        batch.hedged = False
        batch.first_dispatch = None
        self._queue.append(batch)

    def _resolve_error(self, batch: _Batch, exc: Exception) -> None:
        if not batch.future.done():
            batch.future.set_exception(exc)

    def _mark_dead_locked(self, worker: _Worker, reason: str) -> None:
        """A worker died (crash, kill after hang, fatal restore failure)."""
        if worker.state in ("dead", "quarantined"):
            return
        busy = worker.busy_batch
        worker.state = "dead"
        worker.busy_batch = None
        worker.consecutive_failures += 1
        self.stats["crashes"] += 1 if reason == "crash" else 0
        self._shutdown_worker(worker, grace=0.1)
        if busy is not None:
            batch = self._inflight.get(busy)
            if batch is not None:
                batch.assignments.pop(worker.slot, None)
                self._attempt_failed_locked(batch, reason)
        if worker.consecutive_failures >= self.breaker_threshold:
            worker.state = "quarantined"
            self.stats["quarantined"] += 1
            emit_event("supervisor:quarantine")
            return
        hold = self.restart_backoff_s * (2 ** (worker.consecutive_failures - 1))
        worker.restart_at = time.monotonic() + hold

    def _kill_hung_locked(self, worker: _Worker, reason: str) -> None:
        """A worker presumed frozen: kill it, then treat it as dead."""
        self.stats["hangs"] += 1
        proc = worker.process
        if proc is not None and proc.is_alive():
            proc.kill()
        self._mark_dead_locked(worker, reason=reason)

    def _check_deadlines_locked(self) -> None:
        now = time.monotonic()
        for batch in list(self._inflight.values()):
            for slot, t0 in list(batch.assignments.items()):
                if now - t0 < self.batch_deadline_s:
                    continue
                worker = self._workers.get(slot)
                batch.assignments.pop(slot, None)
                self.stats["timeouts"] += 1
                emit_event("supervisor:timeout")
                if worker is not None and worker.busy_batch == batch.batch_id:
                    # presumed hung: the death path charges the batch's
                    # failed attempt, exactly once (the sentinel then finds
                    # the worker already dead)
                    self._kill_hung_locked(worker, reason="timeout")
                else:
                    self._attempt_failed_locked(batch, "timeout")

    def _check_heartbeats_locked(self) -> None:
        now = time.monotonic()
        for worker in self._workers.values():
            if not worker.alive_ish:
                continue
            window = self.heartbeat_timeout_s
            if worker.state == "starting":
                window = max(window, READY_TIMEOUT_S)
            if now - worker.last_hb < window:
                continue
            # frozen: no heartbeat inside the window — kill and recover
            self._kill_hung_locked(worker, reason="hang")

    def _restart_due_locked(self) -> None:
        now = time.monotonic()
        for worker in self._workers.values():
            if worker.state == "dead" and worker.restart_at is not None:
                if now >= worker.restart_at and not self._closed:
                    worker.generation += 1
                    self.stats["restarts"] += 1
                    emit_event("supervisor:restart")
                    self._spawn(worker)

    def _fail_unservable_locked(self) -> None:
        """With every slot quarantined, pending batches must still resolve."""
        if not all(w.state == "quarantined" for w in self._workers.values()):
            return
        doomed = list(self._queue) + list(self._inflight.values())
        self._queue.clear()
        self._inflight.clear()
        for batch in doomed:
            self._resolve_error(
                batch,
                WorkerUnavailable(
                    "every worker slot is quarantined (circuit breaker open)"
                ),
            )
