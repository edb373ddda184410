"""The traced run: per-layer numbers, attribution, and tracing overhead.

One set-up, timed part by part.  Then the workload is served twice for
half the time each: once with tracing off and once with ``REPRO_TRACE``
set, so the program's own spans are recorded (the difference between the
two halves' headline latency is the tracing overhead).  Both halves'
answers are checked exactly as in the untraced run.
"""

from __future__ import annotations

import os

import numpy as np

from measure import SPAN_LAYERS, attribute, headline, pct, span_ms
from metrics import PER_LAYER


def _durations_ms(batches) -> np.ndarray:
    return np.array([(b[1] - b[0]) * 1e3 for b in batches if b[1] is not None])


def _served_spans(wl, served: dict):
    """Per-batch span ms of the traced half, keyed by per-layer metric.

    In-process services report their spans as they serve.  Pool workers
    keep theirs, so the pool's batches are replayed in-process under
    tracing instead; that replay also gives the in-process batch time the
    IPC overhead is computed against.
    """
    from repro.mesh.trace import drain_traced_tracers

    batches = [b for b in served["batches"] if b[1] is not None]
    spans = served["spans"]
    inproc_ms = _durations_ms(batches)
    if wl.remote:
        rows = [b[2] for b in batches]
        inproc_ms = np.array([wl.replay(r, batch=len(r))[2][0] * 1e3 for r in rows])
        os.environ["REPRO_TRACE"] = "1"
        try:
            drain_traced_tracers()
            for r in rows:
                wl.service.run_batch(r)
            spans = span_ms(drain_traced_tracers())
        finally:
            os.environ.pop("REPRO_TRACE", None)
    n = max(1, len(batches))
    per_batch = {metric: spans.get(name, 0.0) / n for name, metric in SPAN_LAYERS.items()}
    return per_batch, inproc_ms


def traced_run(wl, seconds: float):
    import gc

    from repro.mesh.trace import drain_traced_tracers

    values = dict(wl.setup())
    gc.collect()
    gc.freeze()
    plain = wl.serve(seconds / 2, traced=False)
    os.environ["REPRO_TRACE"] = "1"
    try:
        drain_traced_tracers()
        served = wl.serve(seconds / 2, traced=True)
    finally:
        os.environ.pop("REPRO_TRACE", None)
        drain_traced_tracers()
    results = [wl.check(plain), wl.check(served)]
    result = {
        key: sum(r[key] for r in results) for key in ("attempted", "failed", "wrong")
    }
    head_plain = headline(plain)
    head = headline(served)
    spans, inproc_ms = _served_spans(wl, served)
    values.update(spans)
    steps = results[1]["steps"]
    values["mesh.steps_per_batch"] = float(steps.mean())
    values["error_rate"] = (result["failed"] + result["wrong"]) / result["attempted"]
    batch_ms = _durations_ms(served["batches"])
    values["serve.service.run_batch_p50_ms"] = pct(inproc_ms, 50)
    values["serve.service.run_batch_p99_ms"] = pct(inproc_ms, 99)
    notes = []
    run = served["run"]
    att = attribute(run, served["batches"])
    stats, cache = served["stats"], served["cache"]
    waits = att["wait"][att["rides"]]
    values.update({
        "serve.batcher.queue_wait_p50_ms": pct(waits, 50),
        "serve.batcher.queue_wait_p99_ms": pct(waits, 99),
        "serve.batcher.batch_size_mean":
            sum(len(b[2]) for b in served["batches"]) / max(1, stats["batches"]),
        "serve.batcher.deadline_flush_frac":
            stats["flush_deadline"] / max(1, stats["batches"]),
        "serve.cache.hit_ratio":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.cache.coalesced": stats["coalesced"],
        "serve.cache.evictions": cache["evictions"],
        "loadgen.late_p99_ms": pct(run.late_ms, 99),
    })
    parts = {
        "loadgen.late": att["late"].mean(),
        "front_end.queue_wait": att["wait"].mean(),
        ("serve.pool.round_trip" if wl.remote else "serve.service.run_batch"):
            att["batch"].mean(),
    }
    if wl.remote:
        pool = wl.pool
        values.update({
            "serve.pool.rtt_p50_ms": pct(batch_ms, 50),
            "serve.pool.rtt_p99_ms": pct(batch_ms, 99),
            "serve.ipc.overhead_ms": float(batch_ms.mean() - inproc_ms.mean()),
            "serve.pool.retries": pool.stats["retries"],
            "serve.pool.timeouts": pool.stats["timeouts"],
            "serve.pool.restarts": pool.stats["restarts"],
        })
        notes.append(
            "serve.ipc.overhead_ms is computed: mean pool round trip minus "
            "mean in-process replay of the same batches"
        )
    values["wall_ms"] = float(att["wall"].mean())
    values["layers_ms"] = float(sum(parts.values()))
    values["unattributed_ms"] = values["wall_ms"] - values["layers_ms"]
    values["trace.overhead_ms"] = head["p50_ms"] - head_plain["p50_ms"]

    notes.append(
        f"samples (traced half): {head['n_queries']} queries, "
        f"{head['n_batches']} batches"
    )
    notes.append("attribution of the mean query latency in the traced half:")
    for name, ms in parts.items():
        notes.append(f"  {name:<40} {ms:10.3f} ms")
    notes.append(f"  {'unattributed':<40} {values['unattributed_ms']:10.3f} ms")
    notes.append(
        f"  layers {values['layers_ms']:.3f} + unattributed "
        f"{values['unattributed_ms']:.3f} = wall {values['wall_ms']:.3f} ms"
    )
    notes.append(
        f"tracing overhead on p50_ms: traced {head['p50_ms']:.3f} - "
        f"untraced {head_plain['p50_ms']:.3f} = "
        f"{values['trace.overhead_ms']:.3f} ms"
    )
    notes.append(f"error_rate: {values['error_rate']:.6f}")
    # a layer this workload never reaches reports 0
    return result, {name: values.get(name, 0.0) for name in PER_LAYER}, notes
