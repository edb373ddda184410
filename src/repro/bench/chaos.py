"""Chaos harness: seeded fault injection vs paranoid invariant checking.

Runs the E1/E2 smoke problems, a synthetic primitive pipeline, structure
construction, interval counting on a sharded multi-chip mesh (``xchip``),
and the cycle-accurate VM programs (``vm_sort`` /
``vm_route`` / ``vm_scan`` / ``vm_broadcast``, each differential against
its engine primitive — see :mod:`repro.mesh.vm_oracle`) under a matrix of
fault plans (kind x seed), once with paranoid mode on and once off
("bare"), and classifies what happened to every injected fault:

* ``detected:paranoid`` — :class:`repro.mesh.faults.InvariantViolation`
  raised (a primitive-boundary check or a phase-boundary validator fired);
* ``detected:validator`` — an always-on assertion outside paranoid mode
  caught it;
* ``crash`` — the corruption surfaced as an ordinary exception (loud,
  but not a diagnosis);
* ``silent_corruption`` — the run completed with outputs differing from
  the clean run's fingerprint (the failure mode paranoid mode exists to
  prevent);
* ``no_effect`` — the run completed byte-identical despite the
  injection (e.g. the perturbed value was never read);
* ``no_opportunity`` — the scenario never presented the plan's fault
  kind (nothing was injected; excluded from the detection gate).

The report is a pure function of the seed matrix: identical seeds give
identical injection logs and identical classifications.  The CLI exits 1
when a paranoid-mode cell with an injected fault went undetected
(``silent_corruption`` / ``no_effect``) and is not documented in the
committed blind-spot baseline (``FAULTS_baseline.json``)::

    python -m repro.bench.chaos --seeds 1 2 3 --baseline FAULTS_baseline.json
    python -m repro.bench.chaos --seeds 1 2 3 --write-baseline FAULTS_baseline.json

**Process suite** (``--suite process``): the supervised serving layer
(:mod:`repro.serve.pool`) under the ``worker_*`` process-fault kinds —
crash, hang, slow, corrupt reply — injected *inside worker processes*.
Recovery is a success here, so the suite has its own outcome taxonomy:

* ``recovered`` — every query answered byte-identical to the direct
  single-process batch, despite injected faults;
* ``detected`` — some queries failed with *typed* serving errors
  (retries exhausted / pool quarantined), every answered query correct,
  cache clean: the failure was contained and reported, not hidden;
* ``silent_corruption`` — an answered query differed from the direct
  run (the outcome supervision exists to prevent);
* ``cache_pollution`` — the result cache holds a wrong answer;
* ``unresolved`` — an accepted query's future never resolved
  (exactly-once violated);
* ``no_opportunity`` — no evidence the fault ever manifested.

Gated against ``process_blind_spots`` in the same baseline file::

    python -m repro.bench.chaos --suite process --seeds 1 2 3 \\
        --baseline FAULTS_baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

from repro.mesh.engine import MeshEngine
from repro.mesh.faults import (
    ADVERSARIAL_KINDS,
    FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    VM_FAULT_KINDS,
    XCHIP_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InvariantViolation,
    apply_adversarial,
)

__all__ = [
    "SCENARIOS",
    "SCENARIO_KINDS",
    "run_cell",
    "run_matrix",
    "run_process_cell",
    "run_process_matrix",
    "gate",
    "gate_process",
    "main",
]

SCHEMA_VERSION = 1
#: default seeds of the nightly chaos matrix
DEFAULT_SEEDS = (1, 2, 3)


def _fingerprint(*parts) -> str:
    """Order-sensitive digest of arrays/scalars (run-output identity)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


# -- scenarios -------------------------------------------------------------
#
# Each scenario builds its problem deterministically, runs it to
# completion, and returns an output fingerprint.  ``injector=None`` with
# ``paranoid=False`` is the clean reference run.


def _scenario_e1(paranoid: bool, injector: FaultInjector | None) -> str:
    """E1 smoke: hierarchical-DAG multisearch (adversarial-input surface)."""
    from repro.core.hierdag import hierdag_multisearch
    from repro.core.model import QuerySet
    from repro.graphs.adapters import hierdag_search_structure
    from repro.graphs.hierarchical import build_mu_ary_search_dag

    dag, leaf_keys = build_mu_ary_search_dag(2, 8, seed=1)
    st = hierdag_search_structure(dag)
    rng = np.random.default_rng(2)
    keys = rng.uniform(leaf_keys[0], leaf_keys[-1], 256)
    eng = MeshEngine.for_problem(max(int(dag.size), 256), paranoid=paranoid)
    qs = QuerySet.start(keys, 0)
    if injector is not None:
        injector.install(eng)
        apply_adversarial(injector, st, qs)
    res = hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
    return _fingerprint(qs.current, qs.steps, res.mesh_steps)


def _scenario_e2(paranoid: bool, injector: FaultInjector | None) -> str:
    """E2 smoke: Constrained-Multisearch (sort/rar/scan primitive surface)."""
    from repro.core.constrained import constrained_multisearch
    from repro.core.model import QuerySet
    from repro.core.splitters import splitting_from_labels
    from repro.graphs.adapters import ktree_directed_structure
    from repro.graphs.ktree import build_balanced_search_tree

    t = build_balanced_search_tree(2, 8, seed=1)
    st = ktree_directed_structure(t)
    sp = splitting_from_labels(t.alpha_splitter().comp, t.children, 0.5)
    rng = np.random.default_rng(3)
    keys = rng.uniform(t.leaf_keys[0], t.leaf_keys[-1], 256)
    eng = MeshEngine.for_problem(max(int(t.size), 256), paranoid=paranoid)
    qs = QuerySet.start(keys, np.zeros(256, dtype=np.int64))
    if injector is not None:
        injector.install(eng)
        apply_adversarial(injector, st, qs)
    constrained_multisearch(eng, st, qs, sp)
    return _fingerprint(qs.current, qs.steps, eng.clock.time)


def _scenario_primitives(paranoid: bool, injector: FaultInjector | None) -> str:
    """Synthetic pipeline over the primitives E1/E2 don't exercise:
    ``sort_by`` -> ``route`` -> ``rar`` -> inter-region ``transfer``."""
    eng = MeshEngine.for_problem(64, paranoid=paranoid)
    if injector is not None:
        injector.install(eng)
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1000, 64).astype(np.int64)
    r = eng.root
    (srt,) = r.sort_by(keys, label="chaos:sort")
    perm = rng.permutation(64)
    (routed,) = r.route(perm, srt, label="chaos:route")
    addr = rng.integers(0, 64, 64)
    (vals,) = r.rar(addr, routed, label="chaos:rar")
    half = r.spec.rows // 2
    top = r.subregion(0, 0, half, r.spec.cols)
    bot = r.subregion(half, 0, r.spec.rows - half, r.spec.cols)
    (moved,) = eng.transfer(top, bot, routed[:16], label="chaos:xfer")
    return _fingerprint(srt, routed, vals, moved, eng.clock.time)


def _scenario_construct(paranoid: bool, injector: FaultInjector | None) -> str:
    """Structure construction: the ``construct:*`` charge sites.

    Builds a small Kirkpatrick hierarchy through
    :class:`~repro.mesh.construct.Construction`, so the sort / scan /
    route / independent-set charges of the build pipeline are the fault
    surface.  The tied-key permutation swap lives here too: the
    independent-set degree sort is almost all ties, which is exactly the
    case the ``sort:stable`` invariant closes.
    """
    from repro.geometry.kirkpatrick import build_kirkpatrick, kirkpatrick_structure
    from repro.mesh.construct import Construction

    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, (48, 2))
    construct = Construction(48 + 3, paranoid=paranoid)
    if injector is not None:
        injector.install(construct.engine)
    hier = build_kirkpatrick(pts, seed=3, construct=construct)
    st, mu = kirkpatrick_structure(hier, construct=construct)
    return _fingerprint(
        *(lv.triangles for lv in hier.levels),
        st.adjacency, st.level, mu, construct.clock.time,
    )


def _scenario_vm(program: str, seed: int):
    """A ``vm_*`` scenario: one VM program vs its engine oracle.

    ``paranoid`` maps onto the VM chaos layer's checks (the step-level
    integrity boundary plus the program's phase checks), so an injected
    ``vm_*`` fault raises :class:`InvariantViolation` exactly like an
    engine-primitive fault under engine paranoid mode.  The fingerprint
    folds in the differential verdict against the engine primitive, so a
    bare-mode fault that changes the answer is classified
    ``silent_corruption`` even if the VM run itself completes quietly.
    """
    from repro.mesh import vm_oracle

    def scenario(paranoid: bool, injector: FaultInjector | None) -> str:
        inputs = vm_oracle.make_inputs(program, 8, 8, seed=seed)
        ref = vm_oracle.engine_reference(inputs)
        out, steps = vm_oracle.vm_run(inputs, injector=injector, check=paranoid)
        match = vm_oracle.compare(program, out, ref)
        return _fingerprint(*(np.asarray(a) for a in out), steps, match)

    scenario.__name__ = f"_scenario_vm_{program}"
    return scenario


def _scenario_xchip(paranoid: bool, injector: FaultInjector | None) -> str:
    """Sharded multi-chip mesh: the off-chip exchange fault surface.

    E8 interval counting (two alpha rank multisearches, each running
    Constrained-Multisearch) on a 2x2-chiplet
    :class:`~repro.mesh.shard.ShardedMeshEngine`.  ``xchip_drop`` /
    ``xchip_corrupt`` plans fire on the outputs of every chip-spanning
    sort, route and transfer, and the paranoid merge-point checks
    (record-count conservation, payload integrity) are what stands
    between an off-chip fault and a silently wrong count.
    """
    from repro.apps.interval_search import (
        count_intersections_mesh,
        setup_interval_search,
    )
    from repro.bench.workloads import random_intervals
    from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine

    eng = ShardedMeshEngine(MultiChipMesh.square(2, 16), paranoid=paranoid)
    if injector is not None:
        injector.install(eng)
    lefts, rights = random_intervals(200, seed=23, domain=100.0, mean_len=6.0)
    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 100.0, 64)
    b = a + rng.uniform(0.1, 15.0, 64)
    counts, steps = count_intersections_mesh(
        setup_interval_search(lefts, rights), a, b, engine=eng
    )
    return _fingerprint(counts, steps)


SCENARIOS = {
    "e1_smoke": _scenario_e1,
    "e2_smoke": _scenario_e2,
    "primitives": _scenario_primitives,
    "construct": _scenario_construct,
    "xchip": _scenario_xchip,
    "vm_sort": _scenario_vm("sort", seed=11),
    "vm_route": _scenario_vm("route", seed=13),
    "vm_scan": _scenario_vm("scan", seed=17),
    "vm_broadcast": _scenario_vm("broadcast", seed=19),
}

ALL_KINDS = FAULT_KINDS + ADVERSARIAL_KINDS + VM_FAULT_KINDS + XCHIP_FAULT_KINDS

#: each scenario's fault surface: engine scenarios never open a VM, and
#: the VM scenarios never cross an engine primitive with an injector
#: installed, so running the complementary kinds would only produce
#: ``no_opportunity`` cells (and, for the heavyweight multisearch
#: scenarios, burn nightly minutes doing it)
SCENARIO_KINDS = {
    "e1_smoke": FAULT_KINDS + ADVERSARIAL_KINDS,
    "e2_smoke": FAULT_KINDS + ADVERSARIAL_KINDS,
    "primitives": FAULT_KINDS + ADVERSARIAL_KINDS,
    "construct": FAULT_KINDS + ADVERSARIAL_KINDS,
    "xchip": XCHIP_FAULT_KINDS,
    "vm_sort": VM_FAULT_KINDS,
    "vm_route": VM_FAULT_KINDS,
    "vm_scan": VM_FAULT_KINDS,
    "vm_broadcast": VM_FAULT_KINDS,
}


# -- one cell --------------------------------------------------------------


def run_cell(scenario: str, kind: str, seed: int, paranoid: bool, clean: str) -> dict:
    """Run one (scenario, kind, seed, mode) cell and classify the outcome."""
    fn = SCENARIOS[scenario]
    injector = FaultInjector(FaultPlan(seed=seed, kind=kind))
    error = None
    try:
        fp = fn(paranoid, injector)
        if not injector.injected:
            outcome = "no_opportunity"
        elif fp == clean:
            outcome = "no_effect"
        else:
            outcome = "silent_corruption"
    except InvariantViolation as exc:
        outcome = "detected:paranoid"
        error = exc.to_dict()
    except AssertionError as exc:
        outcome = "detected:validator"
        error = {"detail": str(exc)}
    except Exception as exc:  # noqa: BLE001 - classification, not handling
        outcome = "crash"
        error = {"type": type(exc).__name__, "detail": str(exc)}
    cell = {
        "scenario": scenario,
        "kind": kind,
        "seed": seed,
        "mode": "paranoid" if paranoid else "bare",
        "outcome": outcome,
        "injected": injector.log(),
        "opportunities": int(injector.opportunities.get(kind, 0)),
    }
    if error is not None:
        cell["error"] = error
    return cell


def run_matrix(seeds, scenarios=None, kinds=None) -> dict:
    """The full deterministic chaos report (no timestamps: diffable)."""
    scenarios = list(scenarios or SCENARIOS)
    kinds = list(kinds or ALL_KINDS)
    clean = {name: SCENARIOS[name](False, None) for name in scenarios}
    results = []
    for scenario in scenarios:
        surface = SCENARIO_KINDS.get(scenario, ALL_KINDS)
        for kind in (k for k in kinds if k in surface):
            for seed in seeds:
                for paranoid in (True, False):
                    results.append(
                        run_cell(scenario, kind, seed, paranoid, clean[scenario])
                    )
    summary: dict[str, dict[str, int]] = {"paranoid": {}, "bare": {}}
    injected_cells = {"paranoid": 0, "bare": 0}
    detected_cells = {"paranoid": 0, "bare": 0}
    for cell in results:
        mode = cell["mode"]
        summary[mode][cell["outcome"]] = summary[mode].get(cell["outcome"], 0) + 1
        if cell["injected"] or cell["outcome"].startswith("detected"):
            injected_cells[mode] += 1
            if cell["outcome"].startswith("detected"):
                detected_cells[mode] += 1
    rates = {
        mode: (detected_cells[mode] / injected_cells[mode] if injected_cells[mode] else None)
        for mode in ("paranoid", "bare")
    }
    return {
        "schema": SCHEMA_VERSION,
        "seeds": list(seeds),
        "scenarios": scenarios,
        "kinds": kinds,
        "results": results,
        "summary": summary,
        "detection_rate": rates,
    }


def _blind_key(cell: dict) -> str:
    return f"{cell['mode']}:{cell['scenario']}:{cell['kind']}"


def _spots(cells) -> dict[str, str]:
    """Blind-spot cells as a baseline fragment: key -> first sighting."""
    spots: dict[str, str] = {}
    for cell in cells:
        spots.setdefault(
            _blind_key(cell), f"{cell['outcome']} (first seen seed={cell['seed']})"
        )
    return spots


def _undetected(report: dict) -> list[dict]:
    """Paranoid cells whose injected fault was neither detected nor crashed."""
    return [
        cell
        for cell in report["results"]
        if cell["mode"] == "paranoid"
        and cell["injected"]
        and cell["outcome"] in ("silent_corruption", "no_effect")
    ]


def gate(report: dict, baseline: dict | None) -> list[str]:
    """Undetected paranoid-mode injections not documented as blind spots.

    Every :func:`blind_spots` key must appear in the baseline's
    ``blind_spots`` map, else each of its cells is a gate failure (the
    chaos CI job exits 1).
    """
    known = (baseline or {}).get("blind_spots", {})
    return [
        f"{_blind_key(cell)} seed={cell['seed']}: injected fault went "
        f"{cell['outcome']} and is not in the blind-spot baseline"
        for cell in _undetected(report)
        if _blind_key(cell) not in known
    ]


def blind_spots(report: dict) -> dict[str, str]:
    """The report's undetected paranoid cells, as a baseline fragment."""
    return _spots(_undetected(report))


# -- process suite: the supervised serving layer under worker faults --------
#
# Per-kind pool tuning: rates below 1.0 leave the retry path a healthy
# worker to land on (a rate-1.0 plan re-arms on every restarted worker,
# so recovery is impossible by construction and the only correct outcome
# is a typed failure — that is the engine-suite's job, not this one's).
_PROCESS_TUNING = {
    "worker_crash": dict(rate=0.5),
    "worker_hang": dict(rate=0.4),
    "worker_slow": dict(rate=0.5),
    "worker_corrupt_reply": dict(rate=0.7),
}

#: pool stats that evidence each kind actually manifested in a worker
#: (the injector's own log lives in the worker process and dies with it;
#: the supervisor's counters are the observable truth)
_PROCESS_EVIDENCE = {
    "worker_crash": ("crashes",),
    "worker_hang": ("hangs", "timeouts"),
    "worker_slow": ("hedges", "timeouts"),
    "worker_corrupt_reply": ("corrupt_replies",),
}


def _process_snapshot(tmpdir: pathlib.Path) -> tuple[pathlib.Path, np.ndarray, list]:
    """One small pointloc snapshot + its direct (fault-free) answers."""
    from repro.serve.service import restore_service
    from repro.serve.snapshot import read_snapshot, snapshot_pointloc

    rng = np.random.default_rng(1331)
    sites = rng.standard_normal((48, 2))
    path = tmpdir / "chaos_pointloc.snap"
    snapshot_pointloc(path, sites, seed=0)
    service = restore_service(read_snapshot(path))
    queries = rng.standard_normal((16, 2))
    direct, _ = service.run_batch(queries)
    return path, queries, list(direct)


def run_process_cell(
    kind: str,
    seed: int,
    snapshot_path,
    queries: np.ndarray,
    direct: list,
    wait_s: float = 60.0,
) -> dict:
    """One (kind, seed) cell of the process-fault suite.

    Spawns a 2-worker supervised pool with the kind's fault plan, pushes
    every query through, and classifies on the invariants the supervisor
    promises: exactly-once resolution, byte-identical answers, typed
    errors only, a clean cache.
    """
    import asyncio

    from repro.serve import ResultCache, ServingError, SupervisedServer, WorkerPool
    from repro.serve.cache import query_cache_key

    plan = FaultPlan(
        seed=seed, kind=kind, max_faults=None, **_PROCESS_TUNING[kind]
    )
    pool = WorkerPool(
        snapshot_path,
        workers=2,
        batch_deadline_s=2.5,
        heartbeat_s=0.1,
        heartbeat_timeout_s=1.0,
        max_retries=6,
        backoff_s=0.02,
        hedge_s=0.15,
        restart_backoff_s=0.05,
        breaker_threshold=8,
        fault_plans=[plan],
        slow_s=0.6,
    )
    cache = ResultCache()
    outcomes: list = []
    unresolved = False

    async def drive():
        nonlocal unresolved
        server = SupervisedServer(pool, batch_size=4, deadline_s=0.01, cache=cache)
        tasks = [asyncio.ensure_future(server.submit(q)) for q in queries]
        done, pending = await asyncio.wait(tasks, timeout=wait_s)
        unresolved = bool(pending)
        for task in pending:
            task.cancel()
        for task in tasks:
            if task in pending:
                outcomes.append(("unresolved", None))
            elif task.exception() is not None:
                outcomes.append(("error", task.exception()))
            else:
                outcomes.append(("ok", task.result()))
        await server.close(close_pool=True)

    try:
        asyncio.run(drive())
    finally:
        pool.close(timeout=1.0)

    wrong = sum(
        1
        for (tag, value), want in zip(outcomes, direct)
        if tag == "ok" and not np.array_equal(value, want)
    )
    typed_errors = sum(
        1 for tag, value in outcomes if tag == "error" and isinstance(value, ServingError)
    )
    untyped_errors = sum(
        1
        for tag, value in outcomes
        if tag == "error" and not isinstance(value, ServingError)
    )
    snapshot_id = pool.snapshot_id
    polluted = 0
    for q, want in zip(queries, direct):
        found, got = cache.get(query_cache_key(snapshot_id, q))
        if found and not np.array_equal(got, want):
            polluted += 1
    evidence = sum(
        int(pool.stats.get(stat, 0)) for stat in _PROCESS_EVIDENCE[kind]
    )

    if wrong:
        outcome = "silent_corruption"
    elif polluted:
        outcome = "cache_pollution"
    elif unresolved:
        outcome = "unresolved"
    elif untyped_errors:
        outcome = "crash"
    elif evidence == 0:
        outcome = "no_opportunity"
    elif typed_errors:
        outcome = "detected"
    else:
        outcome = "recovered"
    return {
        "scenario": "serve_pool",
        "kind": kind,
        "seed": seed,
        "mode": "supervised",
        "outcome": outcome,
        "wrong_answers": wrong,
        "typed_errors": typed_errors,
        "untyped_errors": untyped_errors,
        "cache_polluted": polluted,
        "evidence": evidence,
        "pool_stats": {
            k: v
            for k, v in pool.stats.items()
            if isinstance(v, (int, float)) and v
        },
    }


def run_process_matrix(seeds, kinds=None, tmpdir=None) -> dict:
    """The process-fault suite over ``kinds`` x ``seeds``.

    Worker scheduling is nondeterministic, so unlike the engine matrix
    the *evidence counts* vary run to run — but the classification rests
    on invariants (exactly-once, byte-identity, typed-only, cache-clean)
    that must hold under any interleaving.
    """
    import tempfile

    kinds = list(kinds or PROCESS_FAULT_KINDS)
    bad = [k for k in kinds if k not in PROCESS_FAULT_KINDS]
    if bad:
        raise ValueError(f"not process fault kinds: {bad}")
    owned = None
    if tmpdir is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        tmpdir = owned.name
    try:
        path, queries, direct = _process_snapshot(pathlib.Path(tmpdir))
        results = [
            run_process_cell(kind, seed, path, queries, direct)
            for kind in kinds
            for seed in seeds
        ]
    finally:
        if owned is not None:
            owned.cleanup()
    summary: dict[str, int] = {}
    for cell in results:
        summary[cell["outcome"]] = summary.get(cell["outcome"], 0) + 1
    handled = sum(
        1 for c in results if c["outcome"] in ("recovered", "detected")
    )
    with_evidence = sum(1 for c in results if c["outcome"] != "no_opportunity")
    return {
        "schema": SCHEMA_VERSION,
        "suite": "process",
        "seeds": list(seeds),
        "kinds": kinds,
        "results": results,
        "summary": summary,
        "handled_rate": (handled / with_evidence) if with_evidence else None,
    }


def _broken(report: dict) -> list[dict]:
    """Process cells other than ``recovered`` / ``detected`` /
    ``no_opportunity``: each broke a supervision invariant."""
    return [
        cell
        for cell in report["results"]
        if cell["outcome"] not in ("recovered", "detected", "no_opportunity")
    ]


def gate_process(report: dict, baseline: dict | None) -> list[str]:
    """Process-suite cells that broke a supervision invariant.

    Every :func:`process_blind_spots` key must be documented in the
    baseline's ``process_blind_spots`` map, else each of its cells is a
    failure and the chaos job exits 1.
    """
    known = (baseline or {}).get("process_blind_spots", {})
    return [
        f"{_blind_key(cell)} seed={cell['seed']}: {cell['outcome']} "
        f"(wrong={cell['wrong_answers']} "
        f"polluted={cell['cache_polluted']} "
        f"untyped={cell['untyped_errors']}) — not in the "
        "process blind-spot baseline"
        for cell in _broken(report)
        if _blind_key(cell) not in known
    ]


def process_blind_spots(report: dict) -> dict[str, str]:
    """The process report's invariant breaks, as a baseline fragment."""
    return _spots(_broken(report))


def _render_process(report: dict) -> str:
    lines = ["process chaos matrix (supervised serving):"]
    for cell in report["results"]:
        stats = cell["pool_stats"]
        interesting = {
            k: stats[k]
            for k in ("retries", "hedges", "crashes", "hangs", "timeouts",
                      "corrupt_replies", "restarts", "quarantined")
            if k in stats
        }
        lines.append(
            f"  {cell['kind']:<22} seed={cell['seed']} -> {cell['outcome']}"
            + (f"  {interesting}" if interesting else "")
        )
    rate = report["handled_rate"]
    rate_txt = "n/a" if rate is None else f"{rate:.0%}"
    lines.append(f"summary: {report['summary']}  handled={rate_txt}")
    return "\n".join(lines)


def _render(report: dict) -> str:
    lines = ["chaos matrix:"]
    for cell in report["results"]:
        inj = len(cell["injected"])
        lines.append(
            f"  {cell['mode']:<8} {cell['scenario']:<12} "
            f"{cell['kind']:<24} seed={cell['seed']} -> {cell['outcome']}"
            + (f" ({inj} injected)" if inj else "")
        )
    for mode in ("paranoid", "bare"):
        rate = report["detection_rate"][mode]
        rate_txt = "n/a" if rate is None else f"{rate:.0%}"
        lines.append(f"{mode}: {report['summary'][mode]}  detection={rate_txt}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.chaos", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument(
        "--scenarios", nargs="+", choices=sorted(SCENARIOS), default=None
    )
    parser.add_argument(
        "--suite", choices=("engine", "process", "all"), default="engine",
        help="engine: the in-process fault matrix (default); process: the "
        "supervised serving layer under worker_* faults; all: both",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the full JSON report here",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="blind-spot baseline (FAULTS_baseline.json); undetected "
        "paranoid-mode injections not listed there exit 1",
    )
    parser.add_argument(
        "--write-baseline", type=pathlib.Path, default=None, metavar="PATH",
        help="record this run's blind spots to PATH and exit 0",
    )
    args = parser.parse_args(argv)

    engine_report = process_report = None
    if args.suite in ("engine", "all"):
        engine_report = run_matrix(args.seeds, scenarios=args.scenarios)
        print(_render(engine_report), flush=True)
    if args.suite in ("process", "all"):
        process_report = run_process_matrix(args.seeds)
        print(_render_process(process_report), flush=True)
    if args.out is not None:
        if engine_report is not None and process_report is not None:
            doc = dict(engine_report)
            doc["process"] = process_report
        else:
            doc = engine_report if engine_report is not None else process_report
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}", flush=True)
    if args.write_baseline is not None:
        # merge into an existing baseline so the engine and process
        # suites can maintain their halves independently
        doc = {"schema": SCHEMA_VERSION, "blind_spots": {}, "covers": {}}
        if args.write_baseline.exists():
            doc.update(json.loads(args.write_baseline.read_text()))
        if engine_report is not None:
            doc["blind_spots"] = blind_spots(engine_report)
            # informational: the scenario/kind universe this baseline's
            # empty-or-not blind-spot list was established over
            doc["covers"] = {
                "scenarios": engine_report["scenarios"],
                "kinds": engine_report["kinds"],
            }
        if process_report is not None:
            doc["process_blind_spots"] = process_blind_spots(process_report)
            doc["process_covers"] = {
                "scenarios": ["serve_pool"],
                "kinds": process_report["kinds"],
            }
        args.write_baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.write_baseline}", flush=True)
        return 0
    baseline = None
    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
    failures = []
    if engine_report is not None:
        failures.extend(gate(engine_report, baseline))
    if process_report is not None:
        failures.extend(gate_process(process_report, baseline))
    if failures:
        print("\nUNDOCUMENTED BLIND SPOTS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
