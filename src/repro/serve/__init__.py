"""Multisearch-as-a-service: snapshots, services, batching, caching.

The construction pipelines (Kirkpatrick, Dobkin-Kirkpatrick, rank trees)
are expensive; the per-batch multisearch is cheap.  This package splits
the two across process lifetimes:

* :mod:`repro.serve.snapshot` — build once, serialize the flat structure
  arrays + scalar meta to a versioned ``.npz``, restore without
  re-running construction;
* :mod:`repro.serve.service` — per-application query services over
  restored structures, batch-in / per-query-results-out;
* :mod:`repro.serve.batcher` — asyncio front-end turning individual
  queries into mesh-sized batches (flush on size, or once the executor
  is free), with single-flight dedup and typed shutdown;
* :mod:`repro.serve.cache` — bounded LRU over
  ``(snapshot_id, query bytes)`` with profile-visible hit/miss counters;
* :mod:`repro.serve.pool` / :mod:`repro.serve.supervisor` — self-healing
  multi-process serving: snapshot-restored workers under a supervisor
  with heartbeats, deadlines, retry/hedging, circuit breakers, and load
  shedding;
* :mod:`repro.serve.errors` — the typed serving failures
  (``Overloaded`` / ``ServerClosed`` / ``WorkerUnavailable`` /
  ``BatchFailed``);
* :mod:`repro.serve.ipc` — the checksummed supervisor↔worker wire
  protocol.

See DESIGN.md ("The serving layer", "Supervision & failure domains")
and EXPERIMENTS.md E13/E14.
"""

from repro.serve.batcher import BatchingServer
from repro.serve.cache import (
    ResultCache,
    note_coalesced,
    query_cache_key,
)
from repro.serve.errors import (
    BatchFailed,
    Overloaded,
    ServerClosed,
    ServingError,
    WorkerUnavailable,
)
from repro.serve.pool import WorkerPool
from repro.serve.supervisor import SupervisedServer
from repro.serve.service import (
    IntervalCountService,
    LinePolyService,
    MultisearchService,
    PointLocationService,
    restore_service,
)
from repro.serve.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    compute_snapshot_id,
    read_snapshot,
    snapshot_intervals,
    snapshot_linepoly,
    snapshot_pointloc,
    write_snapshot,
)

__all__ = [
    "BatchingServer",
    "SupervisedServer",
    "WorkerPool",
    "ServingError",
    "Overloaded",
    "ServerClosed",
    "WorkerUnavailable",
    "BatchFailed",
    "ResultCache",
    "note_coalesced",
    "query_cache_key",
    "MultisearchService",
    "PointLocationService",
    "LinePolyService",
    "IntervalCountService",
    "restore_service",
    "Snapshot",
    "SnapshotError",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "compute_snapshot_id",
    "read_snapshot",
    "write_snapshot",
    "snapshot_pointloc",
    "snapshot_linepoly",
    "snapshot_intervals",
]
