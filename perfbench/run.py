"""Serving benchmark: one workload, one seed, a fixed time budget.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pointloc-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``metrics.py``).  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any answer is wrong or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 7


def untraced(wl, seconds: float):
    import gc

    from measure import headline, peak_rss_mb

    setups = [sum(wl.setup().values()) for _ in range(SETUP_REPEATS)]
    gc.collect()
    gc.freeze()
    served = wl.serve(seconds, traced=False)
    # before the checks, while the serving pool's workers are still alive
    rss = peak_rss_mb()
    result = wl.check(served)
    head = headline(served)
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": head["p50_ms"],
        "p99_ms": head["p99_ms"],
        "mesh_steps_per_query": float(result["steps"].sum()) / result["attempted"],
        "peak_rss_mb": rss,
    }
    notes = [
        f"samples: {head['n_queries']} queries, {head['n_batches']} batches, "
        f"{SETUP_REPEATS} set-ups",
        f"error_rate: {(result['failed'] + result['wrong']) / result['attempted']:.6f} "
        f"(failed {result['failed']}, wrong {result['wrong']})",
    ]
    if served["run"].errors:
        notes.append(f"failures by type: {dict(served['run'].errors)}")
    return result, metrics, notes


def main(argv=None) -> int:
    from metrics import END_TO_END, NO_CHANGE, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program not found: no {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("REPRO_TRACE", None)

    from workloads import WORKLOADS as CLASSES

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = CLASSES[args.workload](args.seed, workdir)
    try:
        if args.trace:
            from traced import traced_run

            result, values, notes = traced_run(wl, args.seconds)
            spec = {name: unit for name, (unit, _m, _w) in PER_LAYER.items()}
            notes += [
                f"{name} -> {moves} on {', '.join(on)}"
                for name, (_u, moves, on) in PER_LAYER.items()
            ]
            notes += [
                f"predicted no change: {layer} change on {on} ({why})"
                for layer, on, why in NO_CHANGE
            ]
        else:
            result, values, notes = untraced(wl, args.seconds)
            spec = {name: unit for name, (unit, _b, _bound) in END_TO_END.items()}
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, unit in spec.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    doc = {
        "correct": result["wrong"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"] + result["wrong"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in spec.items()
        },
    }
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
