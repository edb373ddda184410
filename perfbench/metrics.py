"""Metric catalogue of the benchmark: names, units, and what should move what.

``END_TO_END`` are the numbers a caller of the serving API sees; the
untraced run (``--trace 0``) reports exactly these.  ``PER_LAYER`` are
the traced run's numbers (``--trace 1``), one entry per layer metric,
with the end-to-end metric it should move and the workloads on which it
should move it.  ``NO_CHANGE`` lists the predictions a change to one
layer makes for the workloads that bypass that layer.

Every workload reports every metric; a layer a workload never reaches
reports 0 (that is the prediction, e.g. zero cache hits on unique
points).  ``BENCHMARK.json`` at the repository root mirrors the names,
units and bounds, and holds why each workload was chosen and which
direction of each per-layer metric is better.
"""

from __future__ import annotations

WORKLOADS = ("pointloc-stream", "interval-pool-zipf")
PL, IP = WORKLOADS
ALL = WORKLOADS

#: name -> (unit, better, bound), for the untraced run.  The time bounds
#: are wide because the machine's speed drifts by tens of percent over
#: minutes; the mesh-step count is exact and gets a tight bound.  Both
#: workloads are open loop, where a caller sees per-query latency only;
#: per-batch times are the per-layer ``serve.service.run_batch_*`` and
#: ``serve.pool.rtt_*``.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "p99_ms": ("ms", "lower", 0.25),
    "mesh_steps_per_query": ("steps", "lower", 0.02),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, end-to-end metric it should move, workloads where it does)
PER_LAYER = {
    # set-up layers
    "geometry.build_s": ("s", "setup_s", (PL,)),
    "serve.snapshot.write_s": ("s", "setup_s", ALL),
    "serve.snapshot.read_s": ("s", "setup_s", ALL),
    "serve.service.restore_s": ("s", "setup_s", ALL),
    "serve.pool.ready_s": ("s", "setup_s", (IP,)),
    # front end and service
    "serve.batcher.queue_wait_p50_ms": ("ms", "p50_ms", (PL, IP)),
    "serve.batcher.queue_wait_p99_ms": ("ms", "p99_ms", (PL, IP)),
    "serve.batcher.batch_size_mean": ("count", "p50_ms", (PL,)),
    "serve.batcher.deadline_flush_frac": ("ratio", "p50_ms", (PL,)),
    "serve.service.run_batch_p50_ms": ("ms", "p50_ms", (PL,)),
    "serve.service.run_batch_p99_ms": ("ms", "p99_ms", (PL,)),
    # cache
    "serve.cache.hit_ratio": ("ratio", "p50_ms", (IP,)),
    "serve.cache.coalesced": ("count", "p50_ms", (IP,)),
    "serve.cache.evictions": ("count", "p50_ms", (IP,)),
    # pool and IPC
    "serve.pool.rtt_p50_ms": ("ms", "p99_ms", (IP,)),
    "serve.pool.rtt_p99_ms": ("ms", "p99_ms", (IP,)),
    "serve.ipc.overhead_ms": ("ms", "p99_ms", (IP,)),
    "serve.pool.retries": ("count", "error_rate", (IP,)),
    "serve.pool.timeouts": ("count", "error_rate", (IP,)),
    "serve.pool.restarts": ("count", "error_rate", (IP,)),
    # applications and core searches, from the program's own spans
    "apps.pointloc.search_ms": ("ms", "serve.service.run_batch_p50_ms", (PL,)),
    "apps.pointloc.finalize_ms": ("ms", "serve.service.run_batch_p50_ms", (PL,)),
    "core.hierdag.ms": ("ms", "serve.service.run_batch_p50_ms", (PL,)),
    "apps.intervals.count_ms": ("ms", "serve.pool.rtt_p50_ms", (IP,)),
    "core.constrained.rounds_ms": ("ms", "serve.pool.rtt_p50_ms", (IP,)),
    # mesh cost measure
    "mesh.steps_per_batch": ("steps", "mesh_steps_per_query", ALL),
    # load generator, accounting and run health
    "loadgen.late_p99_ms": ("ms", "p99_ms", (PL, IP)),
    "wall_ms": ("ms", "p50_ms", ALL),
    "layers_ms": ("ms", "p50_ms", ALL),
    "unattributed_ms": ("ms", "p50_ms", ALL),
    "trace.overhead_ms": ("ms", "p50_ms", ALL),
    "error_rate": ("ratio", "error_rate", ALL),
}

#: (layer changed, workload, why nothing should move there)
NO_CHANGE = (
    ("serve.cache", PL, "unique points: every lookup misses"),
    ("apps.linepoly.verify", PL, "point location runs no verify walk"),
    ("apps.linepoly.verify", IP, "interval counting runs no verify walk"),
    ("geometry.hull3d", PL, "planar Kirkpatrick build, no 3-d hull"),
    ("geometry.hull3d", IP, "rank trees, no 3-d hull"),
)
