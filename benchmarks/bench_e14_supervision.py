"""E14: availability under chaos — supervised serving vs worker-kill rate.

The supervision claim is quantitative: a worker pool with heartbeats,
deadlines, retries, and restarts should *degrade*, not collapse, when
workers die mid-batch.  This bench measures it directly: a fixed query
workload is pushed through a :class:`~repro.serve.supervisor.SupervisedServer`
over a :class:`~repro.serve.pool.WorkerPool` while ``worker_crash``
faults fire at increasing per-batch rates, and each point records
sustained throughput (qps) and latency quantiles (p50/p99).  The timed
window opens once every worker reports idle, so those figures measure
serving and restarts after kills; the pool's first start is recorded
apart as ``ready_s``.

The headline gate (enforced here and re-checked by a committed-document
test): **qps at a 10% kill rate must stay at or above 80% of the
fault-free qps**.  Retries and restarts cost wall-clock, so some drop is
expected — the gate bounds it.

This bench does not fit the generic runner's record schema (its metric
is qps under faults, not fast-vs-slow wall time), so it owns its CLI::

    PYTHONPATH=src python benchmarks/bench_e14_supervision.py --out BENCH_e14_supervision.json
    PYTHONPATH=src python benchmarks/bench_e14_supervision.py --compare BENCH_e14_supervision.json

``--compare`` re-runs the sweep and fails (exit 1) when any matching
kill-rate point's qps regressed below ``baseline * (1 - tolerance)``,
mirroring the runner's ``--compare`` contract; the availability gate is
checked on both fresh runs and compares.  Exit 2 means the bench itself
broke (typed serving failures or a missing baseline) — CI can tell
"worse" from "broken".
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

SCHEMA_VERSION = 1
#: --compare tolerance: qps is wall-clock under multiprocess scheduling,
#: so the band is wide (mirrors the nightly e13 wall tolerance)
QPS_TOLERANCE = 0.5
#: the availability gate: min fraction of fault-free qps at 10% kills
AVAILABILITY_FLOOR = 0.8
GATE_KILL_RATE = 0.1

KILL_RATES = (0.0, 0.05, 0.1, 0.25)
N_QUERIES = 96
BATCH_SIZE = 8
WORKERS = 3
#: how long a point waits for every worker to report idle
READY_LIMIT_S = 120.0


def _build_snapshot(tmpdir: pathlib.Path) -> pathlib.Path:
    from repro.serve.snapshot import snapshot_pointloc

    rng = np.random.default_rng(1331)
    sites = rng.standard_normal((48, 2))
    path = tmpdir / "e14_pointloc.snap"
    snapshot_pointloc(path, sites, seed=0)
    return path


def run_point(
    snapshot_path, kill_rate: float, n_queries: int = N_QUERIES, seed: int = 5
) -> dict:
    """One sweep point: qps + latency quantiles at one worker-kill rate."""
    from repro.mesh.faults import FaultPlan
    from repro.serve import ServingError, SupervisedServer, WorkerPool

    plans = []
    if kill_rate > 0:
        plans.append(
            FaultPlan(seed=seed, kind="worker_crash", rate=kill_rate, max_faults=None)
        )
    t_start = time.monotonic()
    pool = WorkerPool(
        snapshot_path,
        workers=WORKERS,
        batch_deadline_s=10.0,
        heartbeat_s=0.1,
        heartbeat_timeout_s=3.0,
        max_retries=8,
        backoff_s=0.02,
        restart_backoff_s=0.05,
        breaker_threshold=12,
        fault_plans=plans,
    )
    # the timed window measures serving: worker start is its own field
    while any(state != "idle" for state in pool.worker_states().values()):
        if time.monotonic() - t_start > READY_LIMIT_S:
            pool.close(timeout=1.0)
            raise RuntimeError(f"pool not ready: {pool.worker_states()}")
        time.sleep(0.002)
    ready_s = time.monotonic() - t_start
    rng = np.random.default_rng(97)
    queries = rng.standard_normal((n_queries, 2))
    latencies: list[float] = []
    errors: list[str] = []

    async def drive():
        server = SupervisedServer(pool, batch_size=BATCH_SIZE, deadline_s=0.01)

        async def one(q):
            t0 = time.monotonic()
            try:
                await server.submit(q)
                latencies.append(time.monotonic() - t0)
            except ServingError as exc:
                errors.append(type(exc).__name__)

        t0 = time.monotonic()
        await asyncio.gather(*(one(q) for q in queries))
        wall = time.monotonic() - t0
        await server.close(close_pool=True)
        return wall

    try:
        wall = asyncio.run(drive())
    finally:
        pool.close(timeout=1.0)
    lat = np.sort(np.asarray(latencies)) if latencies else np.asarray([0.0])
    return {
        "kill_rate": kill_rate,
        "n_queries": n_queries,
        "answered": len(latencies),
        "errors": len(errors),
        "ready_s": ready_s,
        "wall_s": wall,
        "qps": len(latencies) / wall if wall > 0 else 0.0,
        "p50_ms": float(lat[int(0.50 * (len(lat) - 1))]) * 1e3,
        "p99_ms": float(lat[int(0.99 * (len(lat) - 1))]) * 1e3,
        "pool_stats": {
            k: v for k, v in pool.stats.items() if isinstance(v, (int, float)) and v
        },
    }


def run_sweep(kill_rates=KILL_RATES, n_queries: int = N_QUERIES) -> dict:
    from repro.bench.runner import provenance

    with tempfile.TemporaryDirectory(prefix="repro-e14-") as tmp:
        path = _build_snapshot(pathlib.Path(tmp))
        points = [run_point(path, rate, n_queries=n_queries) for rate in kill_rates]
    return {
        "schema": SCHEMA_VERSION,
        "bench": "e14_supervision",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "kill_rates": list(kill_rates),
            "n_queries": n_queries,
            "batch_size": BATCH_SIZE,
            "workers": WORKERS,
        },
        "points": points,
        "provenance": provenance(),
    }


def availability_failures(doc: dict) -> list[str]:
    """The built-in gate: qps at GATE_KILL_RATE vs the fault-free point."""
    by_rate = {p["kill_rate"]: p for p in doc["points"]}
    base = by_rate.get(0.0)
    gate = by_rate.get(GATE_KILL_RATE)
    failures = []
    if base is None or gate is None:
        return [f"sweep lacks kill_rate 0.0 or {GATE_KILL_RATE} points"]
    floor = AVAILABILITY_FLOOR * base["qps"]
    if gate["qps"] < floor:
        failures.append(
            f"qps at {GATE_KILL_RATE:.0%} kills = {gate['qps']:.1f} < "
            f"{AVAILABILITY_FLOOR:.0%} of fault-free {base['qps']:.1f}"
        )
    for p in doc["points"]:
        if p["errors"]:
            failures.append(
                f"kill_rate={p['kill_rate']}: {p['errors']} queries failed "
                "(expected full recovery at these rates)"
            )
    return failures


def compare(doc: dict, baseline: dict, tolerance: float = QPS_TOLERANCE) -> list[str]:
    """qps regressions of this run vs a committed baseline document."""
    base_by_rate = {p["kill_rate"]: p for p in baseline["points"]}
    failures = []
    for p in doc["points"]:
        base = base_by_rate.get(p["kill_rate"])
        if base is None:
            continue
        floor = base["qps"] * (1 - tolerance)
        if p["qps"] < floor:
            failures.append(
                f"kill_rate={p['kill_rate']}: qps {p['qps']:.1f} vs baseline "
                f"{base['qps']:.1f} (-{1 - p['qps'] / base['qps']:.0%} "
                f"> {tolerance:.0%})"
            )
    return failures


def _render(doc: dict) -> str:
    lines = [f"{doc['bench']}: {len(doc['points'])} kill-rate points"]
    for p in doc["points"]:
        stats = p["pool_stats"]
        chaos = {
            k: stats[k]
            for k in ("retries", "crashes", "restarts", "timeouts")
            if k in stats
        }
        lines.append(
            f"  kill={p['kill_rate']:<5} ready={p['ready_s']:6.3f}s  qps={p['qps']:7.1f}  "
            f"p50={p['p50_ms']:7.1f}ms  p99={p['p99_ms']:7.1f}ms  "
            f"answered={p['answered']}/{p['n_queries']}"
            + (f"  {chaos}" if chaos else "")
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_e14_supervision", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--compare", type=pathlib.Path, default=None, metavar="BASELINE",
        help="re-run and fail on qps regressions vs this committed document",
    )
    parser.add_argument("--tolerance", type=float, default=QPS_TOLERANCE)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workload (CI smoke; do not commit its output)",
    )
    args = parser.parse_args(argv)

    n = 32 if args.quick else N_QUERIES
    rates = (0.0, GATE_KILL_RATE) if args.quick else KILL_RATES
    doc = run_sweep(kill_rates=rates, n_queries=n)
    print(_render(doc), flush=True)

    failures = availability_failures(doc)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}", flush=True)
    if args.compare is not None:
        if not args.compare.exists():
            print(f"baseline {args.compare} missing", file=sys.stderr)
            return 2
        baseline = json.loads(args.compare.read_text())
        failures.extend(compare(doc, baseline, tolerance=args.tolerance))
    if failures:
        print("\nE14 GATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
