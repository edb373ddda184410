"""Parallel benchmark harness: fan sweep points across cores, emit JSON.

Every ``benchmarks/bench_*.py`` defines a sweep (heights, sizes, widths,
...) driven through a ``run_once``-style entry point.  Under pytest those
sweeps run sequentially inside one process; this module is the
machine-readable, parallel alternative:

* the :data:`REGISTRY` names each bench's entry point and sweep points;
* every point runs in its own spawned worker process (fresh process per
  point, so ``getrusage`` peak RSS is per-point), once with the engine
  fast path enabled and once with it disabled;
* per point it records min-of-repeats wall time for both engine modes,
  the mesh-step count (the paper's cost measure — asserted identical
  between modes), peak RSS, and the fast/slow speedup;
* the sweep is *crash-proof*: a worker that raises, segfaults, is
  OOM-killed, or exceeds ``--timeout`` produces a point record with
  ``{"error": ..., "traceback": ...}`` instead of killing the sweep;
  crashed workers are retried up to ``--retries`` times with exponential
  backoff before the error is recorded;
* completed points stream to ``BENCH_<name>.partial.json`` (written
  atomically after every point), and ``--resume`` skips points that
  checkpoint already completed successfully — errored points rerun;
* results land in ``BENCH_<name>.json`` at the repo root, and
  ``--compare`` re-runs a sweep and fails on >10% wall-clock regression
  against a previously committed JSON.  Errored points always surface as
  failures (exit code 1), never as a silent pass.

Usage::

    python -m repro.bench.runner --all --jobs 4
    python -m repro.bench.runner e1_hierdag e2_constrained
    python -m repro.bench.runner --all --smoke          # smallest points
    python -m repro.bench.runner e1_hierdag --compare BENCH_e1_hierdag.json
    python -m repro.bench.runner e2_constrained --profile
    python -m repro.bench.runner e1_hierdag --trace   # Chrome trace blobs
    python -m repro.bench.runner e3_alpha --timeout 120 --resume

``python -m repro.bench.report`` renders one BENCH JSON's per-phase
breakdown and diffs two of them (same regression rule as ``--compare``).

``bench_figures.py`` (plot aggregation over other benches' saved tables)
is intentionally not in the registry — it has no sweep of its own.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait

import numpy as np

__all__ = [
    "REGISTRY",
    "BenchSpec",
    "error_kind_of",
    "provenance",
    "run_bench",
    "run_point",
    "main",
]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "benchmarks"
SCHEMA_VERSION = 1
#: --compare fails when fast-path wall time exceeds baseline by this factor
REGRESSION_TOLERANCE = 0.10


@dataclass(frozen=True)
class BenchSpec:
    """One bench's entry point and sweep, smallest point first."""

    module: str
    entry: str
    points: tuple
    #: False for sweeps whose return value carries no mesh-step count
    #: (e.g. a relative volume error) — guards the generic extractor.
    has_steps: bool = True
    #: name of an untimed setup function ``setup(**point) -> ctx`` whose
    #: result is passed as the entry point's first argument; benches with
    #: one measure only engine + algorithm, not problem construction.
    setup: str | None = None


def _pts(base: dict | None = None, **sweeps) -> tuple:
    """Cartesian sweep points, sorted ascending by the sweep keys.

    Points are ordered lexicographically by the sweep keys in declaration
    order — the *first* key varies slowest, the last fastest — and each
    key's values ascend regardless of the order they were listed in, so
    ``points[0]`` is always the smallest point (the ``--smoke`` subject).
    """
    points = [dict(base or {})]
    for name, values in sweeps.items():
        points = [{**p, name: v} for v in values for p in points]
    return tuple(sorted(points, key=lambda p: [p[k] for k in sweeps]))


REGISTRY: dict[str, BenchSpec] = {
    "e1_hierdag": BenchSpec(
        "bench_e1_hierdag", "sweep_run",
        _pts(height=[8, 10, 12, 14, 16], method=["hierdag", "baseline"]),
        setup="sweep_setup",
    ),
    "e2_constrained": BenchSpec(
        "bench_e2_constrained", "sweep_run",
        _pts(height=[8, 10, 12, 14], skew=[0.0, 0.5, 1.0]),
        setup="sweep_setup",
    ),
    "e3_alpha": BenchSpec(
        "bench_e3_alpha", "run_once",
        _pts(handle_len=[4, 16, 64, 192, 448], method=["alpha", "baseline"]),
    ),
    "e4_alphabeta": BenchSpec(
        "bench_e4_alphabeta", "run_once",
        _pts(width=[2.0, 16.0, 64.0, 256.0], method=["alphabeta", "baseline"]),
    ),
    "e5_lemma1": BenchSpec(
        "bench_e5_lemma1", "run_once", _pts(height=[10, 12, 14, 16])
    ),
    "e6_linepoly": BenchSpec(
        "bench_e6_linepoly", "run_once", _pts(n=[128, 256, 512, 1024])
    ),
    "e7_pointloc": BenchSpec(
        "bench_e7_pointloc", "run_once",
        _pts(n_sites=[100, 200, 400, 800], method=["hierdag", "baseline"]),
    ),
    "e8_intervals": BenchSpec(
        "bench_e8_intervals", "run_once",
        _pts(n=[256, 512, 1024, 2048], mode=["count", "report"]),
    ),
    "e9a_separation": BenchSpec(
        "bench_e9_hull3d", "run_separation",
        _pts(offset=[0.2, 0.8, 1.4, 2.0, 2.6, 3.2]),
    ),
    "e9b_hull": BenchSpec(
        "bench_e9_hull3d", "run_hull", _pts(n=[200, 400, 800]), has_steps=False
    ),
    "e10_vm": BenchSpec("bench_e10_vm", "vm_costs", _pts(side=[8, 16, 32, 64])),
    # E11 sweeps each pipeline over its own 64x size range (dk3d's host
    # stand-in is O(n^2), so it gets the smaller window); concatenated in
    # ascending key order, so --smoke runs the cheap dk3d n=32 point
    "e11_construct": BenchSpec(
        "bench_e11_construct", "run_once",
        _pts(pipeline=["dk3d"], n=[32, 128, 512, 2048])
        + _pts(pipeline=["kirkpatrick"], n=[64, 256, 1024, 4096]),
    ),
    # E12 reruns E1/E2/E11 pipelines under every registered kernel backend
    # (alphabetical, so each group's points ascend); non-native backends
    # measure their numpy fallback — provenance records which is which
    "e12_backends": BenchSpec(
        "bench_e12_backends", "sweep_run",
        _pts(pipeline=["constrained"],
             backend=["array_api", "cffi", "numba", "numpy"], size=[8, 10, 12])
        + _pts(pipeline=["construct"],
               backend=["array_api", "cffi", "numba", "numpy"],
               size=[64, 256, 1024])
        + _pts(pipeline=["hierdag"],
               backend=["array_api", "cffi", "numba", "numpy"], size=[8, 10, 12]),
        setup="sweep_setup",
    ),
    # E13 fixes the structure and the query load; the sweep varies how the
    # batching front-end packs the load (throughput vs batch size)
    "e13_serving": BenchSpec(
        "bench_e13_serving", "sweep_run",
        _pts({"sites": 128, "queries": 256}, batch=[8, 32, 128, 512]),
        setup="sweep_setup",
    ),
    # E15 holds the global mesh and record count fixed and sweeps only the
    # chip decomposition: steps fall while intra-chip parallelism wins,
    # then rise once off-chip exchanges dominate (the recorded crossover);
    # the k_chip=1 row is the unsharded engine and anchors the curve
    "e15_sharded": BenchSpec(
        "bench_e15_sharded", "run_once",
        _pts({"n": 2048}, k_chip=[1, 2, 4, 8], bandwidth=[1.0, 8.0]),
    ),
    "a4_twothree": BenchSpec(
        "bench_a4_twothree", "run_once",
        _pts(n=[256, 1024, 4096], variant=["complete", "twothree"]),
    ),
    "ablation_bands": BenchSpec(
        "bench_ablation_bands", "run_once",
        _pts(height=[12, 14, 16], variant=["c=2", "c=4", "none"]),
    ),
    "ablation_cm": BenchSpec(
        "bench_ablation_cm", "run_once", _pts(scale=[0.25, 0.5, 1.0, 2.0, 4.0])
    ),
    "dr90_hypercube": BenchSpec(
        "bench_dr90_hypercube", "run_once",
        _pts(handle_len=[16, 64, 192],
             strategy=["hypercube", "mesh-sync", "multisearch"]),
    ),
    # runner self-test: only the trivially-fast "ok" mode is swept by
    # default; the crash/hang/fail modes back tests of the resilient pool
    "selftest": BenchSpec("bench_selftest", "run_once", _pts(mode=["ok"])),
}


# -- worker side -----------------------------------------------------------


def _cpu_model() -> str | None:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    try:
        import platform

        return platform.processor() or None
    except Exception:  # pragma: no cover - platform probing never fatal
        return None


def provenance() -> dict:
    """Environment identity stamped into every bench document.

    A ``wall_s_min`` column is meaningless without knowing *what* ran it:
    which kernel backend the engine resolved (native or fallback), which
    interpreter/library versions, and which CPU.  ``--compare`` baselines
    from a different environment still compare, but the mismatch is now
    visible in the JSON instead of silently attributed to the code.
    """
    from repro.mesh.backend import resolve_backend

    backend = resolve_backend(None)
    versions: dict[str, str | None] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    for lib in ("numba", "cffi"):
        try:
            versions[lib] = importlib.import_module(lib).__version__
        except Exception:  # ImportError, or a broken install — record absence
            versions[lib] = None
    return {
        "backend": backend.name,
        "backend_native": backend.native,
        "backend_fallback_reason": backend.fallback_reason,
        "versions": versions,
        "platform": sys.platform,
        "cpu": _cpu_model(),
    }


def _peak_rss_kib(ru_maxrss: int, platform: str | None = None) -> int:
    """Normalize ``getrusage().ru_maxrss`` to KiB.

    Linux reports ``ru_maxrss`` in KiB but macOS reports bytes; without
    the per-platform divide, ``peak_rss_kb`` would be inflated 1024x on
    Darwin.  (The BSDs also report bytes, but the runner targets the two
    platforms CI and development actually use.)
    """
    if platform is None:
        platform = sys.platform
    if platform == "darwin":
        return int(ru_maxrss) // 1024
    return int(ru_maxrss)


def _extract_steps(result) -> float | None:
    """Best-effort mesh-step count from a bench entry point's return value.

    Accepts the shapes used across ``benchmarks/``: a bare number, a tuple
    whose leading numeric element is the step count, an object exposing
    ``mesh_steps``, or a per-primitive ``{label: steps}`` dict (E10).
    """
    def probe(obj):
        ms = getattr(obj, "mesh_steps", None)
        if ms is not None:
            return float(ms)
        if isinstance(obj, bool):
            return None
        if isinstance(obj, (int, float, np.integer, np.floating)):
            return float(obj)
        if isinstance(obj, dict) and obj and all(
            isinstance(v, (int, float, np.integer, np.floating)) for v in obj.values()
        ):
            return float(sum(obj.values()))
        return None

    for obj in result if isinstance(result, tuple) else (result,):
        found = probe(obj)
        if found is not None:
            return found
    return None


def _bench_callable(bench: str):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = REGISTRY[bench]
    module = importlib.import_module(spec.module)
    return spec, getattr(module, spec.entry)


def run_point(
    bench: str,
    point: dict,
    repeats: int = 5,
    warmup: int = 1,
    profile: bool = False,
    trace: bool = False,
) -> dict:
    """Measure one sweep point (called in a worker process).

    Runs the point under both engine modes (``REPRO_FAST_PATH=1`` and
    ``0``) and returns the point's JSON record.  Because the pool recycles
    the process after each task, ``ru_maxrss`` is this point's peak RSS.

    Host caches (buffer pools, argsort memos) left over from whatever ran
    earlier in this process are dropped on entry, so a point's
    ``peak_rss_kb`` and memo counters are its own — this matters when
    points share a process (pytest, ``run_point`` called in a loop), not
    just in the one-process-per-point pool.

    The caller's ``REPRO_FAST_PATH`` / ``REPRO_PROFILE`` / ``REPRO_TRACE``
    are saved on entry and restored on exit (they used to be popped, which
    clobbered any value the caller had exported).  The optional profiled
    and traced passes run pinned to ``REPRO_FAST_PATH=1`` — they profile
    the mode whose numbers headline the record, not whatever mode the
    process happened to default to.
    """
    from repro.mesh.records import clear_host_caches, drain_memo_counters

    clear_host_caches()
    drain_memo_counters()
    spec, fn = _bench_callable(bench)
    if spec.setup is not None:
        module = importlib.import_module(spec.module)
        ctx = getattr(module, spec.setup)(**point)
        call = lambda: fn(ctx, **point)  # noqa: E731 - tight timing closure
    else:
        call = lambda: fn(**point)  # noqa: E731
    record: dict = {"params": dict(point)}
    modes = (("fast", "1"), ("slow", "0"))
    best = {mode: float("inf") for mode, _ in modes}
    results: dict = {mode: None for mode, _ in modes}
    saved_env = {
        name: os.environ.get(name)
        for name in ("REPRO_FAST_PATH", "REPRO_PROFILE", "REPRO_TRACE")
    }
    try:
        for mode, flag in modes:
            os.environ["REPRO_FAST_PATH"] = flag
            for _ in range(warmup):
                call()
        # interleave the modes' timed repetitions so scheduler noise (other
        # sweep points time-slicing the same cores) biases neither mode
        for _ in range(repeats):
            for mode, flag in modes:
                os.environ["REPRO_FAST_PATH"] = flag
                t0 = time.perf_counter()
                results[mode] = call()
                best[mode] = min(best[mode], time.perf_counter() - t0)
        steps_seen: dict[str, float | None] = {}
        warnings: list[str] = []
        for mode, _ in modes:
            steps = _extract_steps(results[mode]) if spec.has_steps else None
            steps_seen[mode] = steps
            if spec.has_steps and steps is None:
                # distinguish "extractor found nothing" from a genuine zero:
                # steps stays null and the record says why
                warnings.append(
                    f"{mode}: no mesh-step count found in "
                    f"{spec.module}.{spec.entry} result; recording steps: null"
                )
        for mode, _ in modes:
            record[mode] = {
                "wall_s_min": best[mode], "repeats": repeats, "mesh_steps": steps_seen[mode]
            }
        if steps_seen["fast"] is not None and steps_seen["slow"] is not None:
            record["mesh_steps_equal"] = steps_seen["fast"] == steps_seen["slow"]
        if best["fast"] > 0.0:
            record["speedup"] = best["slow"] / best["fast"]
        else:
            # a 0.0 fast wall (clock granularity on a trivial point) used
            # to raise ZeroDivisionError and lose the whole record
            record["speedup"] = None
            warnings.append(
                "fast wall_s_min is 0.0 (below timer resolution); "
                "recording speedup: null"
            )
        if warnings:
            record["warnings"] = warnings
        os.environ["REPRO_FAST_PATH"] = "1"  # pin the extra passes' mode
        if profile:
            from repro.mesh.clock import drain_profiled_clocks
            from repro.mesh.profile import CostProfile, profile as summarize

            drain_profiled_clocks()
            drain_memo_counters()  # scope memo counters to the profiled pass
            os.environ["REPRO_PROFILE"] = "1"
            try:
                call()
            finally:
                os.environ.pop("REPRO_PROFILE", None)
            merged = CostProfile().merge(
                *(summarize(clock.history) for clock in drain_profiled_clocks())
            )
            merged.memo = drain_memo_counters()
            record["profile"] = merged.to_dict()
        if trace:
            from repro.mesh.trace import chrome_doc, drain_traced_tracers

            drain_traced_tracers()  # clear any stale registrations first
            os.environ["REPRO_TRACE"] = "1"
            try:
                call()
            finally:
                os.environ.pop("REPRO_TRACE", None)
            tracers = drain_traced_tracers()
            record["trace"] = chrome_doc(tracers)
            record["trace_tree"] = "\n\n".join(t.render() for t in tracers)
            record["trace_collapsed"] = "\n".join(t.collapsed() for t in tracers)
            record["trace_steps"] = sum(t.total_steps for t in tracers)
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    record["peak_rss_kb"] = _peak_rss_kib(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    return record


def _point_worker(conn, bench, point, repeats, warmup, profile, trace) -> None:
    """Spawned-process entry: run one point, ship the record over ``conn``.

    Any Python-level failure is reported as an ``("error", ...)`` message;
    a process that dies without sending (segfault, OOM kill, ``os._exit``)
    is detected by the parent via EOF on the pipe.
    """
    try:
        record = run_point(bench, point, repeats, warmup, profile, trace)
        conn.send(("ok", record))
    except BaseException as exc:  # noqa: BLE001 - the whole point is isolation
        conn.send(
            (
                "error",
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                },
            )
        )
    finally:
        conn.close()


# -- parent side -----------------------------------------------------------


@dataclass
class _Job:
    """One sweep point's scheduling state in the resilient pool."""

    index: int
    point: dict
    attempts: int = 0
    not_before: float = 0.0
    process: object = None
    conn: object = None
    deadline: float | None = None
    #: notes accumulated across attempts (retry history)
    notes: list = field(default_factory=list)


def _params_key(params: dict) -> str:
    """Canonical string key for a sweep point's params.

    Numeric values are normalized before hashing: a whole-valued float
    equals its int (``4096.0`` vs ``4096``) — JSON round-trips and YAML
    configs disagree on the spelling, and a raw ``json.dumps`` key made
    ``--resume`` silently re-run every such point.  Bools are left alone
    (``True`` is not ``1`` for keying purposes).
    """

    def norm(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    return json.dumps({k: norm(v) for k, v in params.items()}, sort_keys=True)


def error_kind_of(point: dict) -> str:
    """The failure kind of an errored point record.

    New documents carry ``error_kind`` explicitly; older ones are
    classified from the fields they do have (``timed_out`` flags a
    deadline kill, the ``worker crashed`` message a dead process), so
    diffs against pre-``error_kind`` baselines still render the
    distinction.
    """
    kind = point.get("error_kind")
    if kind:
        return str(kind)
    error = str(point.get("error", ""))
    if point.get("timed_out") or error.startswith("timed out"):
        return "timeout"
    if error.startswith("worker crashed"):
        return "crash"
    return "exception"


def _error_record(
    job: "_Job", error: str, tb: str | None = None, kind: str = "exception", **extra
) -> dict:
    """A failed point's record.  ``kind`` distinguishes *how* it failed:

    - ``exception`` — the bench fn raised and the worker reported it;
    - ``crash`` — the worker process died without reporting (segfault,
      OOM kill, ``os._exit``);
    - ``timeout`` — the per-point deadline expired and the runner killed
      the worker.

    The distinction matters for triage (a timeout wants a bigger budget
    or a smaller point; a crash wants a debugger) and is rendered by
    ``report``/``--compare``.
    """
    rec: dict = {
        "params": dict(job.point),
        "error": error,
        "error_kind": kind,
        "traceback": tb,
        "attempts": job.attempts,
    }
    if job.notes:
        rec["notes"] = list(job.notes)
    rec.update(extra)
    return rec


def _write_checkpoint(path: pathlib.Path, config: dict, done: dict) -> None:
    """Atomically persist the completed points (tmp file + rename)."""
    doc = {
        "schema": SCHEMA_VERSION,
        "partial": True,
        "config": config,
        "points": [done[i] for i in sorted(done)],
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def _load_checkpoint(path: pathlib.Path | None, config: dict) -> dict[str, dict]:
    """Successfully completed records from a prior partial run, by params key.

    Only records carrying real measurements (both ``fast`` and ``slow``
    result dicts) are resumed; errored records — and any malformed record
    missing its results, e.g. from a checkpoint truncated mid-write — are
    dropped so they rerun (with the full ``--retries`` budget).  A
    checkpoint whose recorded config differs from this run's is ignored
    with a warning — its numbers were measured under different settings.
    """
    if path is None or not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        print(f"  resume: ignoring unreadable checkpoint {path}: {exc}", flush=True)
        return {}
    if doc.get("config") != config:
        print(
            f"  resume: ignoring checkpoint {path} (config mismatch: "
            f"{doc.get('config')} != {config})",
            flush=True,
        )
        return {}
    return {
        _params_key(r["params"]): r
        for r in doc.get("points", [])
        if "error" not in r
        and isinstance(r.get("fast"), dict)
        and isinstance(r.get("slow"), dict)
    }


def _ensure_child_paths() -> None:
    """Make ``repro`` and the bench modules importable in spawned workers.

    Spawned children rebuild ``sys.path`` from the environment, so a parent
    that found ``repro`` some other way (pytest conftest, editable install)
    must pass the paths down explicitly.
    """
    parts = [str(REPO_ROOT / "src"), str(BENCH_DIR)]
    for part in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if part and part not in parts:
            parts.append(part)
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


def run_bench(
    bench: str,
    jobs: int,
    repeats: int = 5,
    warmup: int = 1,
    smoke: bool = False,
    profile: bool = False,
    trace: bool = False,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.5,
    checkpoint: pathlib.Path | None = None,
    resume: bool = False,
) -> dict:
    """Fan one bench's sweep points across crash-isolated worker processes.

    Each point runs in its own spawned process.  A worker that raises
    reports the exception; one that dies without reporting (segfault, OOM
    kill) is retried up to ``retries`` times with exponential ``backoff``
    before an error record is emitted; one that exceeds ``timeout``
    seconds is terminated and recorded as timed out (no retry — a
    deterministic hang would just hang again).  With ``checkpoint`` set,
    completed points are persisted atomically after every point and
    ``resume=True`` skips points the checkpoint already holds.
    """
    spec = REGISTRY[bench]
    points = spec.points[:1] if smoke else spec.points
    if smoke:
        repeats, warmup = 1, 1
    _ensure_child_paths()
    config = {
        "bench": bench, "repeats": repeats, "warmup": warmup,
        "smoke": smoke, "profile": profile, "trace": trace,
    }
    if checkpoint is not None:
        checkpoint = pathlib.Path(checkpoint)
    done: dict[int, dict] = {}
    prior = _load_checkpoint(checkpoint, config) if resume else {}
    pending: list[_Job] = []
    resumed = 0
    for i, p in enumerate(points):
        rec = prior.get(_params_key(dict(p)))
        if rec is not None:
            done[i] = rec
            resumed += 1
        else:
            pending.append(_Job(index=i, point=p))
    if resumed:
        print(f"  resume: {resumed}/{len(points)} points from {checkpoint}", flush=True)

    started = time.time()
    ctx = get_context("spawn")
    running: dict = {}  # receiving conn -> _Job
    max_workers = max(1, min(jobs, len(points)))

    def finish(job: _Job, record: dict) -> None:
        done[job.index] = record
        if checkpoint is not None:
            _write_checkpoint(checkpoint, config, done)

    def reap(job: _Job, grace: float = 1.0) -> None:
        job.process.terminate()
        job.process.join(grace)
        if job.process.is_alive():
            job.process.kill()
            job.process.join()

    while pending or running:
        now = time.monotonic()
        # launch ready jobs into free slots (skipping backoff holds)
        ready = [j for j in pending if j.not_before <= now]
        for job in ready[: max_workers - len(running)]:
            pending.remove(job)
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_point_worker,
                args=(send_conn, bench, job.point, repeats, warmup, profile, trace),
                daemon=True,
            )
            proc.start()
            send_conn.close()  # child's end; EOF on recv_conn means it died
            job.attempts += 1
            job.process, job.conn = proc, recv_conn
            job.deadline = None if timeout is None else time.monotonic() + timeout
            running[recv_conn] = job
        # wait for a result, a death (EOF), a deadline, or a backoff expiry
        poll = 0.25
        deadlines = [j.deadline for j in running.values() if j.deadline is not None]
        if deadlines:
            poll = min(poll, max(0.01, min(deadlines) - time.monotonic()))
        if pending and len(running) < max_workers:
            holds = [j.not_before for j in pending]
            poll = min(poll, max(0.01, min(holds) - time.monotonic()))
        if running:
            ready_conns = _conn_wait(list(running), timeout=poll)
        else:
            time.sleep(min(poll, 0.05))
            ready_conns = []
        for conn in ready_conns:
            job = running.pop(conn)
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                status, payload = None, None
            conn.close()
            job.process.join()
            if status == "ok":
                finish(job, payload)
            elif status == "error":
                finish(
                    job,
                    _error_record(
                        job, payload["error"], payload["traceback"], kind="exception"
                    ),
                )
            else:  # died without reporting: crash — retry with backoff
                code = job.process.exitcode
                crash = f"worker crashed (exit code {code})"
                if job.attempts <= retries:
                    hold = backoff * (2 ** (job.attempts - 1))
                    job.notes.append(f"attempt {job.attempts}: {crash}; retrying")
                    job.not_before = time.monotonic() + hold
                    job.process = job.conn = None
                    pending.append(job)
                    print(
                        f"  {bench} {job.point}: {crash}, retry in {hold:.1f}s",
                        flush=True,
                    )
                else:
                    finish(job, _error_record(job, crash, kind="crash"))
        # enforce per-point deadlines on whoever is still running
        now = time.monotonic()
        for conn, job in list(running.items()):
            if job.deadline is not None and now >= job.deadline:
                running.pop(conn)
                reap(job)
                conn.close()
                finish(
                    job,
                    _error_record(
                        job,
                        f"timed out after {timeout:.1f}s",
                        kind="timeout",
                        timed_out=True,
                    ),
                )

    records = [done[i] for i in sorted(done)]
    doc = {
        "schema": SCHEMA_VERSION,
        "bench": bench,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance(),
        "jobs": jobs,
        "repeats": repeats,
        "warmup": warmup,
        "wall_s_total": time.time() - started,
        "points": records,
    }
    n_errors = sum(1 for r in records if "error" in r)
    if n_errors:
        doc["n_errors"] = n_errors
    if resumed:
        doc["resumed_points"] = resumed
    if profile:
        from repro.mesh.profile import CostProfile

        merged = CostProfile().merge(
            *(CostProfile.from_dict(r["profile"]) for r in records if "profile" in r)
        )
        doc["profile"] = merged.to_dict()
    return doc


def compare(doc: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Fast-path wall-clock regressions of ``doc`` vs ``baseline`` (>tolerance).

    Errored points — in either document — surface as explicit failures:
    a point that crashed or timed out must never read as a silent pass.
    """
    failures: list[str] = []
    base_by_params = {_params_key(p["params"]): p for p in baseline["points"]}
    for point in doc["points"]:
        key = _params_key(point["params"])
        if "error" in point:
            failures.append(
                f"{doc['bench']} {point['params']}: "
                f"{error_kind_of(point)} — {point['error']}"
            )
            continue
        base = base_by_params.get(key)
        if base is None:
            continue
        if "error" in base:
            failures.append(
                f"{doc['bench']} {point['params']}: baseline point errored "
                f"({error_kind_of(base)} — {base['error']}); no comparison possible"
            )
            continue
        old = base["fast"]["wall_s_min"]
        new = point["fast"]["wall_s_min"]
        if old > 0 and new > old * (1 + tolerance):
            failures.append(
                f"{doc['bench']} {point['params']}: fast wall {new * 1e3:.2f}ms "
                f"vs baseline {old * 1e3:.2f}ms (+{(new / old - 1):.0%} > {tolerance:.0%})"
            )
    return failures


def _render_bench(doc: dict) -> str:
    lines = [f"{doc['bench']}: {len(doc['points'])} points in {doc['wall_s_total']:.1f}s"]
    for point in doc["points"]:
        params = ", ".join(f"{k}={v}" for k, v in point["params"].items())
        if "error" in point:
            lines.append(
                f"  [{params}] ERROR({error_kind_of(point)}) after "
                f"{point.get('attempts', '?')} attempt(s): {point['error']}"
            )
            continue
        steps = point["fast"]["mesh_steps"]
        steps_txt = "-" if steps is None else f"{steps:.0f}"
        eq = point.get("mesh_steps_equal")
        eq_txt = "" if eq is None else ("" if eq else "  STEPS MISMATCH")
        speedup = point.get("speedup")
        speedup_txt = "-" if speedup is None else f"{speedup:.2f}x"
        lines.append(
            f"  [{params}] fast={point['fast']['wall_s_min'] * 1e3:.2f}ms "
            f"slow={point['slow']['wall_s_min'] * 1e3:.2f}ms "
            f"speedup={speedup_txt} steps={steps_txt} "
            f"rss={point['peak_rss_kb'] / 1024:.0f}MB{eq_txt}"
        )
        for warning in point.get("warnings", ()):
            lines.append(f"    WARNING {warning}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.runner", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument("benches", nargs="*", help="bench names (see --list)")
    parser.add_argument("--all", action="store_true", help="run every registered bench")
    parser.add_argument("--list", action="store_true", help="list registered benches")
    parser.add_argument("--jobs", type=int, default=max(1, (os.cpu_count() or 2) - 1))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest sweep point only, one repeat (tier-2 sanity check)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also collect a merged per-label mesh-step profile",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also record one span-traced pass per point; Chrome trace_event "
        "blobs land next to BENCH_<name>.json as TRACE_<name>__<params>.json "
        "(plus a .txt tree render and a flamegraph .collapsed export)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock limit; exceeded points are terminated "
        "and recorded as errors",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="retry a crashed (not raised, not timed-out) point this many "
        "times before recording the error (default: 1)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base delay before a crash retry, doubled per attempt",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip points already completed in BENCH_<name>.partial.json "
        "(errored points rerun); partial results stream there after every "
        "point regardless",
    )
    parser.add_argument(
        "--out-dir", type=pathlib.Path, default=REPO_ROOT,
        help="directory for BENCH_<name>.json (default: repo root)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print, write nothing"
    )
    parser.add_argument(
        "--compare", type=pathlib.Path, default=None, metavar="BASELINE",
        help="baseline BENCH_<name>.json file (or a directory of them); "
        # argparse %-formats help strings, so the percent sign is doubled
        f"exit 1 on a >{REGRESSION_TOLERANCE * 100:.0f}%% fast-path wall-clock "
        "regression",
    )
    parser.add_argument("--tolerance", type=float, default=REGRESSION_TOLERANCE)
    args = parser.parse_args(argv)

    if args.list:
        for name, spec in REGISTRY.items():
            print(f"{name:<16} {spec.module}.{spec.entry}  {len(spec.points)} points")
        return 0
    selected = list(REGISTRY) if args.all else args.benches
    if not selected:
        parser.error("name at least one bench, or pass --all / --list")
    unknown = [b for b in selected if b not in REGISTRY]
    if unknown:
        parser.error(f"unknown bench(es): {', '.join(unknown)} (see --list)")

    failures: list[str] = []
    for bench in selected:
        checkpoint = None
        if not args.no_write:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            checkpoint = args.out_dir / f"BENCH_{bench}.partial.json"
        doc = run_bench(
            bench, jobs=args.jobs, repeats=args.repeats, warmup=args.warmup,
            smoke=args.smoke, profile=args.profile, trace=args.trace,
            timeout=args.timeout, retries=args.retries, backoff=args.backoff,
            checkpoint=checkpoint, resume=args.resume,
        )
        bench_errors = [p for p in doc["points"] if "error" in p]
        for point in bench_errors:
            failures.append(f"{bench} {point['params']}: {point['error']}")
        if args.trace:
            # trace blobs ride back in the point records; peel them off into
            # sidecar files so BENCH_<name>.json stays diff-sized
            for point in doc["points"]:
                blob = point.pop("trace", None)
                tree = point.pop("trace_tree", "")
                folded = point.pop("trace_collapsed", "")
                if blob is None or args.no_write:
                    continue
                args.out_dir.mkdir(parents=True, exist_ok=True)
                pname = "_".join(f"{k}-{v}" for k, v in point["params"].items())
                tpath = args.out_dir / f"TRACE_{bench}__{pname}.json"
                tpath.write_text(json.dumps(blob) + "\n")
                (args.out_dir / f"TRACE_{bench}__{pname}.txt").write_text(tree + "\n")
                (args.out_dir / f"TRACE_{bench}__{pname}.collapsed").write_text(
                    folded + "\n"
                )
                print(f"  wrote {tpath}", flush=True)
        print(_render_bench(doc), flush=True)
        for point in doc["points"]:
            if point.get("mesh_steps_equal") is False:
                failures.append(
                    f"{bench} {point['params']}: fast/slow mesh-step counts differ"
                )
        if args.compare is not None:
            path = args.compare
            if path.is_dir():
                path = path / f"BENCH_{bench}.json"
            if path.exists():
                baseline = json.loads(path.read_text())
                failures += compare(doc, baseline, args.tolerance)
            else:
                failures.append(f"{bench}: baseline {path} not found")
        if not args.no_write and args.compare is None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            out = args.out_dir / f"BENCH_{bench}.json"
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"  wrote {out}", flush=True)
        if checkpoint is not None and checkpoint.exists():
            if bench_errors:
                # keep the checkpoint so --resume can rerun just the
                # errored points
                print(
                    f"  kept {checkpoint} ({len(bench_errors)} errored "
                    f"point(s); rerun with --resume)",
                    flush=True,
                )
            else:
                checkpoint.unlink()
        if args.profile and "profile" in doc:
            from repro.mesh.profile import CostProfile

            print(CostProfile.from_dict(doc["profile"]).render(), flush=True)

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
