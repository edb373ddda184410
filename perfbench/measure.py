"""Measuring helpers: pass-through proxies, span sums, the load generator.

Everything here observes the program from outside: the proxies forward
to the real service and pool objects and only time the calls, and span
times come from the program's own ``REPRO_TRACE`` span trees drained with
:func:`repro.mesh.trace.drain_traced_tracers`.
"""

from __future__ import annotations

import asyncio
import resource
import time
from collections import Counter

import numpy as np

perf = time.perf_counter

#: program span name -> per-layer metric it feeds
SPAN_LAYERS = {
    "pointloc:search": "apps.pointloc.search_ms",
    "pointloc:finalize": "apps.pointloc.finalize_ms",
    "hierdag": "core.hierdag.ms",
    "intervals:count": "apps.intervals.count_ms",
    "cm:rounds": "core.constrained.rounds_ms",
}


def pct(values, q: float) -> float:
    """The ``q``-th percentile as an observed sample (no interpolation).

    ``inverted_cdf`` keeps an ``inf`` (a failed query) from turning an
    interpolated percentile into NaN.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q, method="inverted_cdf"))


def windowed_pct(times, values, q: float, windows: int) -> float:
    """Lower quartile over ``windows`` equal time slices of each slice's percentile.

    A shared host stalls the program in bursts that can cover half a run
    or more.  Each burst inflates the slices it lands in; the lower
    quartile of the slices' tails ignores bursts covering up to three
    quarters of the run, while a slowdown of the program itself moves
    every slice and so moves the figure.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    edges = np.linspace(times.min(), times.max(), windows + 1)
    slot = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, windows - 1)
    tails = [pct(values[slot == w], q) for w in range(windows) if (slot == w).any()]
    return float(np.percentile(tails, 25))


def span_ms(tracers) -> Counter:
    """Wall ms per span name across drained tracers.

    A span nested inside a span of the same name is not counted twice.
    """
    out: Counter = Counter()

    def walk(span, open_names):
        if span.name not in open_names:
            out[span.name] += span.wall_s * 1e3
            open_names = open_names | {span.name}
        for child in span.children:
            walk(child, open_names)

    for tracer in tracers:
        tracer.finish()
        walk(tracer.root, frozenset())
    return out


class TimedService:
    """Pass-through proxy on a service that times every ``run_batch``.

    With ``traced`` set the program's span trees are drained after each
    call, so every batch gets its own span sums.
    """

    def __init__(self, service, traced: bool = False):
        self._service = service
        self._traced = traced
        #: per batch: (start, end, rows)
        self.batches: list[tuple[float, float, np.ndarray]] = []
        self.spans: Counter = Counter()

    def __getattr__(self, name):
        return getattr(self._service, name)

    def run_batch(self, queries, engine=None):
        from repro.mesh.trace import drain_traced_tracers

        t0 = perf()
        out = self._service.run_batch(queries, engine=engine)
        t1 = perf()
        self.batches.append((t0, t1, np.asarray(queries)))
        if self._traced:
            self.spans.update(span_ms(drain_traced_tracers()))
        return out


class TimedPool:
    """Pass-through proxy on a ``WorkerPool`` timing each batch round trip.

    The round trip runs from ``submit_batch`` to the pool future's
    completion (the dispatcher thread resolves it on a verified reply).
    """

    def __init__(self, pool):
        self._pool = pool
        #: per batch: [start, end or None, rows]
        self.batches: list[list] = []

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def submit_batch(self, rows):
        t0 = perf()
        future = self._pool.submit_batch(rows)
        record = [t0, None, np.asarray(rows)]
        self.batches.append(record)
        future.add_done_callback(lambda _f: record.__setitem__(1, perf()))
        return future


def poisson_due(rng, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson arrival times in ``[0, seconds)``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64)
    due = np.cumsum(gaps)
    return due[due < seconds]


class OpenLoopRun:
    """Per-query record of one open-loop run (all times ``perf_counter``)."""

    def __init__(self, rows: np.ndarray):
        n = len(rows)
        self.rows = rows
        self.due = np.zeros(n)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.ok = np.zeros(n, dtype=bool)
        self.results: list = [None] * n
        self.errors: Counter = Counter()

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency from each query's due time; a failed query is ``inf``."""
        lat = (self.done - self.due) * 1e3
        return np.where(self.ok, lat, np.inf)

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


async def open_loop(server, rows: np.ndarray, due_rel: np.ndarray) -> OpenLoopRun:
    """Send ``rows[i]`` at ``due_rel[i]`` seconds, never waiting on replies.

    One coroutine per query on the caller's loop; a refused or failed
    query (``Overloaded``, ``ServerClosed``, any error) is recorded as
    failed, not retried.
    """
    loop = asyncio.get_running_loop()
    run = OpenLoopRun(rows)

    async def one(i: int) -> None:
        run.sent[i] = perf()
        try:
            run.results[i] = await server.submit(rows[i])
            run.ok[i] = True
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            run.errors[type(exc).__name__] += 1
        run.done[i] = perf()

    t0 = perf() + 0.01
    run.due[:] = t0 + due_rel
    tasks = []
    for i in range(len(rows)):
        delay = run.due[i] - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i)))
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)
    return run


def rode_batches(run: OpenLoopRun, batches) -> np.ndarray:
    """Index of the batch each query's answer came from, ``-1`` for cache hits.

    A query rode the first batch holding its row that ended no earlier
    than the query was sent (as leader or as a coalesced follower) when
    its answer arrived after that batch ended; otherwise the cache
    answered it.
    """
    ends: dict[bytes, list[tuple[float, int]]] = {}
    for b, (_t0, t1, rows) in enumerate(batches):
        for row in rows:
            ends.setdefault(row.tobytes(), []).append((t1, b))
    out = np.full(len(run.sent), -1, dtype=np.int64)
    for i, row in enumerate(run.rows):
        for t1, b in ends.get(row.tobytes(), ()):
            if t1 is not None and t1 >= run.sent[i]:
                if run.done[i] >= t1:
                    out[i] = b
                break
    return out


def attribute(run: OpenLoopRun, batches) -> dict:
    """Split each answered query's latency into generator, queue and batch time.

    ``late`` is the generator's delay past the due time, ``wait`` the time
    from sending to the start of the batch the query rode, ``batch`` the
    part of that batch's run after the query was sent; the remainder is
    unattributed (cache lookup, future resolution, loop scheduling).
    Returns per-query arrays (ms) over the answered queries.
    """
    rode = rode_batches(run, batches)
    ok = run.ok
    starts = np.array([b[0] for b in batches] + [np.nan])
    ends = np.array([b[1] if b[1] is not None else np.nan for b in batches] + [np.nan])
    t0 = starts[rode]
    t1 = ends[rode]
    rides = rode >= 0
    sent = run.sent
    wait = np.where(rides, np.maximum(0.0, t0 - sent), 0.0) * 1e3
    batch = np.where(rides, t1 - np.maximum(t0, sent), 0.0) * 1e3
    late = run.late_ms
    wall = (run.done - run.due) * 1e3
    return {
        "rides": rides[ok],
        "wall": wall[ok],
        "late": late[ok],
        "wait": wait[ok],
        "batch": batch[ok],
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live child's peak.

    The live children are the pool workers serving the traffic; their
    high-water marks are read from ``VmHWM`` in ``/proc``.  The sum of the
    peaks bounds from above the memory held at any one time.
    """
    import multiprocessing

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as fh:
            kb += next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def headline(served: dict) -> dict:
    """The served-window numbers every run reports.

    ``p99_ms`` is the lower quartile over equal time slices of the run of
    each slice's p99 (see :func:`windowed_pct`): up to 20 slices, each of
    at least 1000 queries so that ten or more lie beyond its p99.
    """
    run = served["run"]
    lat = run.latency_ms
    windows = max(1, min(20, len(lat) // 1000))
    return {
        "p50_ms": pct(lat, 50),
        "p99_ms": windowed_pct(run.due, lat, 99, windows),
        "n_queries": len(lat),
        "n_batches": sum(b[1] is not None for b in served["batches"]),
    }
