"""E13 — serving throughput: queries/sec through the batching front-end.

The serving layer (:mod:`repro.serve`) answers *individual* queries by
accumulating them into mesh-sized batches.  This sweep fixes the
structure (a Kirkpatrick DAG over ``sites`` points, built and
snapshotted once, untimed) and the query load (``queries`` independent
points), then measures wall time to push the whole load through a
:class:`repro.serve.batcher.BatchingServer` across batch sizes:

* small ``batch`` — many flushes, each paying the per-batch multisearch
  overhead on few queries: low throughput;
* ``batch`` at or above the load — one or two flushes amortizing the
  descent across every query.  A tail smaller than ``batch`` flushes on
  the next event-loop turn (the in-process executor is never busy), so
  no point waits on the flush deadline and the sweep has no deadline
  axis.

Each timed call restores the service from the snapshot's in-memory form
and runs a fresh event loop, server and result cache, so repeats don't
serve each other from the cache.  The reported step count is the summed
mesh steps of every flushed batch.

Committed document: ``BENCH_e13_serving.json`` (see EXPERIMENTS.md E13).
"""

import asyncio

import numpy as np

__all__ = ["sweep_setup", "sweep_run"]


def sweep_setup(sites: int, queries: int, batch: int) -> dict:
    """Untimed: build + snapshot + restore the structure, draw the load.

    The snapshot round-trips through its serialized bytes (header
    validation and content-hash check included), so the timed part serves
    from exactly what a disk restore would give it.
    """
    import io
    import tempfile
    from pathlib import Path

    from repro.serve import restore_service, snapshot_pointloc

    rng = np.random.default_rng(13)
    site_pts = rng.random((sites, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e13_pointloc.snap"
        snapshot_pointloc(path, site_pts, seed=13)
        blob = path.read_bytes()
    from repro.serve.snapshot import read_snapshot

    snapshot = read_snapshot(io.BytesIO(blob))
    service = restore_service(snapshot)
    load = rng.random((queries, 2))
    return {"service": service, "load": load}


async def _serve_load(service, load, batch: int):
    from repro.serve import BatchingServer, ResultCache

    server = BatchingServer(
        service, batch_size=batch, cache=ResultCache(capacity=4 * len(load))
    )
    # submit_many gathers per-query futures; a tail batch smaller than
    # ``batch`` flushes on the next loop turn
    results = await server.submit_many(load)
    return results, server.stats


def sweep_run(ctx: dict, sites: int, queries: int, batch: int) -> dict:
    """Timed: the full load through a fresh server; returns its mesh steps."""
    results, stats = asyncio.run(_serve_load(ctx["service"], ctx["load"], batch))
    assert len(results) == queries
    return {"mesh_steps": stats["mesh_steps"]}
