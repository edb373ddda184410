"""Deterministic fault injection and paranoid invariant checking.

The paper's correctness story is per-phase: O(1) records per processor,
permutation routing, sortedness after every ``sort``, well-formed graph
structures (Lemmas 1-3).  This module makes those claims *testable under
attack* and *checkable at every boundary*:

* :class:`FaultPlan` / :class:`FaultInjector` — a seeded, declarative
  fault layer the engine consults at primitive boundaries.  It can
  corrupt routed record payloads, perturb sort keys, drop transfer
  batches, and hand adversarial inputs (wild query pointers, NaN keys,
  out-of-range levels) to the core algorithms.  Every injection is
  logged; identical seeds produce identical injection logs, so a chaos
  run is reproducible bit for bit.
* **Paranoid mode** (``REPRO_PARANOID=1`` or ``MeshEngine(...,
  paranoid=True)``) — invariant assertions at every primitive boundary
  (post-``sort`` sortedness, ``route`` scatter integrity, ``transfer``
  batch integrity) and at the phase boundaries of the core algorithms
  (structure/query/splitting well-formedness, re-using
  :mod:`repro.graphs.validate`).  Violations raise a structured
  :class:`InvariantViolation` naming the failing check and the innermost
  trace span path.  All checks are host-side reads: they charge **zero
  mesh steps** and never change outputs, so paranoid runs are
  byte-identical to plain runs (gated by ``tests/test_paranoid.py``).

Injection happens *before* the paranoid check at the same boundary, so a
paranoid engine detects its own injected faults at the earliest possible
point — and a non-paranoid engine shows which corruptions the always-on
validators still catch and which silently propagate
(``python -m repro.bench.chaos``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.mesh.trace import _resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mesh.engine import MeshEngine

__all__ = [
    "FAULT_KINDS",
    "ADVERSARIAL_KINDS",
    "VM_FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "XCHIP_FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "FaultInjector",
    "InvariantViolation",
    "paranoid_default",
    "current_span_path",
    "invariant",
    "paranoid_boundary",
    "apply_adversarial",
]

#: fault kinds injected at engine primitive boundaries
FAULT_KINDS = (
    "perturb_sort_key",      # break post-sort ordering (sort_by/argsort)
    "corrupt_route_payload",  # scramble one routed record's payload
    "drop_transfer",          # truncate a transfer's record batch
)

#: fault kinds applied to a core algorithm's *inputs* (see
#: :func:`apply_adversarial`)
ADVERSARIAL_KINDS = (
    "corrupt_query_pointer",   # point a query at a non-existent vertex
    "nan_query_key",           # non-finite search key
    "corrupt_structure_level",  # out-of-range level value
)

#: fault kinds injected inside the cycle-accurate VM, at the data movement
#: of a single :meth:`repro.mesh.machine.MeshVM.shift` (see
#: :meth:`FaultInjector.on_vm_shift`)
VM_FAULT_KINDS = (
    "vm_flip_word",     # one received register word is flipped after a shift
    "vm_drop_link",     # one link lane delivers stale (stuck) or fill values
    "vm_corrupt_fill",  # the mesh-boundary fill arrives corrupted
    "vm_dup_step",      # the link double-pumps: data moves two hops in one step
)

#: fault kinds applied at the *process* level, inside a serving worker of
#: :mod:`repro.serve.pool` (see :meth:`FaultInjector.on_worker_batch` /
#: :meth:`FaultInjector.on_reply_bytes`) — the failure domains the
#: supervisor exists to survive
PROCESS_FAULT_KINDS = (
    "worker_crash",          # the worker process dies mid-batch (os._exit)
    "worker_hang",           # the worker freezes (SIGSTOP): no reply, no heartbeat
    "worker_slow",           # the worker stalls past the batch deadline, then replies
    "worker_corrupt_reply",  # the reply payload is corrupted in transit
)

#: fault kinds injected on the off-chip links of the sharded multi-chip
#: mesh (:mod:`repro.mesh.shard`): on the outputs of every engine
#: primitive whose region spans chiplets (see
#: :meth:`FaultInjector.on_xchip_exchange`)
XCHIP_FAULT_KINDS = (
    "xchip_drop",     # an off-chip link loses a suffix of the exchanged records
    "xchip_corrupt",  # one exchanged word is corrupted crossing a chip boundary
)


def paranoid_default() -> bool:
    """Process-wide default for :class:`MeshEngine`'s ``paranoid`` flag.

    Controlled by ``REPRO_PARANOID`` (unset/``0``/``false``/``off`` =
    disabled).  The default is **off**: paranoid mode trades host time
    for per-boundary invariant checks.
    """
    val = os.environ.get("REPRO_PARANOID", "0").strip().lower()
    return val not in ("0", "false", "off", "no", "")


class InvariantViolation(AssertionError):
    """A structural invariant failed at a primitive or phase boundary.

    Structured fields:

    * ``check`` — short name of the failing invariant (e.g.
      ``"sort:sorted"``, ``"route:payload"``, ``"hierdag:entry"``);
    * ``span_path`` — names of the open trace spans, outermost first
      (empty when no tracer is attached);
    * ``detail`` — the human-readable reason.
    """

    def __init__(
        self, check: str, detail: str, span_path: Sequence[str] = ()
    ) -> None:
        self.check = str(check)
        self.detail = str(detail)
        self.span_path = tuple(str(s) for s in span_path)
        where = f" [span {'>'.join(self.span_path)}]" if self.span_path else ""
        super().__init__(f"invariant {self.check}: {self.detail}{where}")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "detail": self.detail,
            "span_path": list(self.span_path),
        }


def current_span_path(clock=None) -> tuple[str, ...]:
    """Names of the open trace spans, outermost first.

    Resolution is :func:`repro.mesh.trace.traced`'s.  Returns ``()`` when
    tracing is off — violations still raise, just without a span path.
    """
    tracer = _resolve(clock)
    if tracer is None:
        return ()
    return tracer.current_path


def invariant(check: str, detail: str, clock=None) -> InvariantViolation:
    """Build an :class:`InvariantViolation` tagged with the open span path."""
    return InvariantViolation(check, detail, span_path=current_span_path(clock))


# -- fault plans -----------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """One declarative fault: where, what, how often.

    ``site`` filters by charge label prefix (``"*"`` = any site) so a
    plan can target e.g. only ``cm:``-labelled primitives.  ``rate`` is
    the per-opportunity injection probability and ``max_faults`` bounds
    the total number of injections (``None`` = unbounded).  All
    randomness flows from ``seed`` through one ``np.random.Generator``
    per plan, so the injection log is a pure function of the plan and
    the (deterministic) primitive call sequence.
    """

    seed: int
    kind: str
    site: str = "*"
    rate: float = 1.0
    max_faults: int | None = 1

    def __post_init__(self) -> None:
        known = (
            FAULT_KINDS
            + ADVERSARIAL_KINDS
            + VM_FAULT_KINDS
            + PROCESS_FAULT_KINDS
            + XCHIP_FAULT_KINDS
        )
        if self.kind not in known:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (know {known})"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"fault rate {self.rate} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "site": self.site,
            "rate": self.rate,
            "max_faults": self.max_faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data["seed"]),
            kind=str(data["kind"]),
            site=str(data.get("site", "*")),
            rate=float(data.get("rate", 1.0)),
            max_faults=data.get("max_faults", 1),
        )


@dataclass(frozen=True)
class InjectedFault:
    """One logged injection (JSON-able via :meth:`to_dict`)."""

    kind: str
    site: str
    opportunity: int
    detail: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "opportunity": self.opportunity,
            "detail": dict(self.detail),
        }


class FaultInjector:
    """Executes :class:`FaultPlan`\\ s against engine primitive outputs.

    Install with :meth:`install` (sets ``engine.faults``); the engine
    calls the ``on_*`` hooks after computing each primitive's outputs and
    before its paranoid checks.  When no injector is installed the hooks
    cost the engine one attribute check.
    """

    def __init__(self, *plans: FaultPlan) -> None:
        self.plans = tuple(plans)
        self._rngs = [np.random.default_rng(p.seed) for p in self.plans]
        self._counts = [0] * len(self.plans)
        self.injected: list[InjectedFault] = []
        #: per-kind count of injection opportunities seen (hook calls
        #: matching a plan's site filter), injected or not — lets the
        #: chaos report distinguish "not detected" from "never injected".
        self.opportunities: dict[str, int] = {}

    def install(self, engine: "MeshEngine") -> "FaultInjector":
        engine.faults = self
        return self

    def install_vm(self, vm) -> "FaultInjector":
        """Install on a :class:`repro.mesh.machine.MeshVM` (per-step hook)."""
        vm.faults = self
        return self

    def log(self) -> list[dict]:
        """The deterministic injection log (JSON-able)."""
        return [f.to_dict() for f in self.injected]

    # -- plan matching -----------------------------------------------------

    def _match(self, kind: str, site: str) -> int | None:
        """Index of the plan that fires for this opportunity, else None.

        Every matching plan's RNG is advanced exactly once per
        opportunity, injected or not, so the decision sequence depends
        only on the seed and the call sequence.
        """
        hit: int | None = None
        for i, plan in enumerate(self.plans):
            if plan.kind != kind:
                continue
            if plan.site != "*" and not site.startswith(plan.site):
                continue
            self.opportunities[kind] = self.opportunities.get(kind, 0) + 1
            if plan.max_faults is not None and self._counts[i] >= plan.max_faults:
                continue
            fire = float(self._rngs[i].random()) < plan.rate
            if fire and hit is None:
                hit = i
        return hit

    def _record(self, i: int, kind: str, site: str, detail: dict) -> None:
        self._counts[i] += 1
        self.injected.append(
            InjectedFault(kind, site, self.opportunities.get(kind, 0), detail)
        )

    # -- engine hooks ------------------------------------------------------

    def on_sort_keys(self, keys: np.ndarray, site: str) -> np.ndarray:
        """Maybe break the sorted key array's ordering (returns a copy)."""
        i = self._match("perturb_sort_key", site)
        if i is None or keys.ndim != 1 or keys.shape[0] < 2:
            return keys
        rng = self._rngs[i]
        j = int(rng.integers(0, keys.shape[0] - 1))
        out = np.array(keys)
        # force out[j] > out[j+1]: a strict ordering break whatever the keys
        out[j] = out[j + 1] + out.dtype.type(1)
        self._record(i, "perturb_sort_key", site, {"index": j})
        return out

    def on_sort_order(self, order: np.ndarray, site: str) -> np.ndarray:
        """Maybe swap two adjacent entries of a sort permutation."""
        i = self._match("perturb_sort_key", site)
        if i is None or order.shape[0] < 2:
            return order
        rng = self._rngs[i]
        j = int(rng.integers(0, order.shape[0] - 1))
        out = np.array(order)
        out[[j, j + 1]] = out[[j + 1, j]]
        self._record(i, "perturb_sort_key", site, {"index": j, "swap": True})
        return out

    def on_route_payload(self, outs: Sequence[np.ndarray], targets: np.ndarray, site: str) -> None:
        """Maybe scramble one routed record's payload in place."""
        i = self._match("corrupt_route_payload", site)
        if i is None or not len(outs) or targets.size == 0:
            return
        rng = self._rngs[i]
        a = outs[int(rng.integers(0, len(outs)))]
        slot = int(targets[int(rng.integers(0, targets.size))])
        if a.dtype.kind == "b":
            a[slot] = ~a[slot]
        else:
            a[slot] = a[slot] + a.dtype.type(1)
        self._record(i, "corrupt_route_payload", site, {"slot": slot})

    def on_transfer(self, outs: tuple[np.ndarray, ...], site: str) -> tuple[np.ndarray, ...]:
        """Maybe drop a suffix of the transferred batch."""
        i = self._match("drop_transfer", site)
        if i is None or not outs or outs[0].shape[0] == 0:
            return outs
        rng = self._rngs[i]
        n = int(outs[0].shape[0])
        keep = int(rng.integers(0, n))  # drop at least one record
        self._record(i, "drop_transfer", site, {"kept": keep, "dropped": n - keep})
        return tuple(a[:keep] for a in outs)

    def on_query_rows(self, rows: np.ndarray, site: str) -> np.ndarray:
        """Maybe inject a non-finite key into a raw query batch (a copy).

        The serving-layer equivalent of :func:`apply_adversarial`'s
        ``nan_query_key``: a service calls this on the canonical query
        rows before handing them to a core algorithm, whose paranoid
        entry boundary then re-detects the corruption.  The other
        adversarial kinds have no surface here — query pointers and
        structure levels are internals the serving boundary never sees.
        """
        i = self._match("nan_query_key", site)
        if i is None or rows.shape[0] == 0:
            return rows
        rng = self._rngs[i]
        j = int(rng.integers(0, rows.shape[0]))
        out = np.array(rows)
        out.reshape(rows.shape[0], -1)[j, 0] = np.nan
        self._record(i, "nan_query_key", site, {"query": j})
        return out

    # -- VM hook -----------------------------------------------------------

    def on_vm_shift(self, vm, outs, grids, names, direction, fill):
        """Maybe corrupt the data movement of one VM communication step.

        Called by :meth:`repro.mesh.machine.MeshVM.shift` /
        :meth:`~repro.mesh.machine.MeshVM.shift_many` after the received
        grids are computed and the step is charged; the hook never touches
        :attr:`~repro.mesh.machine.MeshVM.steps` (observer-safe).  A fault
        that would deliver the exact words the link would have delivered
        anyway (e.g. a stuck lane over equal values) is *not* a fault: the
        decision RNG still advances, but nothing is applied or logged, so
        every logged injection is guaranteed to have changed received data
        — which is what the VM's paranoid step-integrity check detects.

        Site is ``vm:<register names>``, so plans can target a specific
        program's registers with a ``site="vm:_route"``-style prefix.
        Returns the (possibly corrupted) received grids.
        """
        site = "vm:" + "+".join(names)
        outs = list(outs)
        step = vm.steps

        i = self._match("vm_flip_word", site)
        if i is not None:
            rng = self._rngs[i]
            k = int(rng.integers(0, len(outs)))
            r = int(rng.integers(0, vm.rows))
            c = int(rng.integers(0, vm.cols))
            a = np.array(outs[k])
            if a.dtype.kind == "b":
                a[r, c] = ~a[r, c]
            else:
                a[r, c] = a[r, c] + a.dtype.type(1)
            if not _words_equal(a, outs[k]):
                outs[k] = a
                self._record(
                    i, "vm_flip_word", site,
                    {"step": step, "register": names[k], "row": r, "col": c},
                )

        i = self._match("vm_drop_link", site)
        if i is not None:
            rng = self._rngs[i]
            stale = bool(rng.integers(0, 2))
            if direction in ("left", "right"):
                lane = int(rng.integers(0, vm.rows))
                sel = (lane, slice(None))
            else:
                lane = int(rng.integers(0, vm.cols))
                sel = (slice(None), lane)
            corrupted = []
            for k in range(len(outs)):
                a = np.array(outs[k])
                a[sel] = grids[k][sel] if stale else a.dtype.type(fill)
                corrupted.append(a)
            if any(
                not _words_equal(a, b) for a, b in zip(corrupted, outs)
            ):
                outs = corrupted
                self._record(
                    i, "vm_drop_link", site,
                    {
                        "step": step, "lane": lane, "direction": direction,
                        "mode": "stale" if stale else "fill",
                    },
                )

        i = self._match("vm_corrupt_fill", site)
        if i is not None:
            # the boundary cells are the ones _shifted gave the fill value
            if direction == "left":
                sel = (slice(None), 0)
            elif direction == "right":
                sel = (slice(None), -1)
            elif direction == "up":
                sel = (0, slice(None))
            else:  # down
                sel = (-1, slice(None))
            corrupted = []
            for k in range(len(outs)):
                a = np.array(outs[k])
                if a.dtype.kind == "b":
                    a[sel] = ~a[sel]
                else:
                    a[sel] = a[sel] + a.dtype.type(1)
                corrupted.append(a)
            if any(
                not _words_equal(a, b) for a, b in zip(corrupted, outs)
            ):
                outs = corrupted
                self._record(
                    i, "vm_corrupt_fill", site,
                    {"step": step, "direction": direction},
                )

        i = self._match("vm_dup_step", site)
        if i is not None:
            corrupted = [vm._shifted(a, direction, fill) for a in outs]
            if any(
                not _words_equal(a, b) for a, b in zip(corrupted, outs)
            ):
                outs = corrupted
                self._record(
                    i, "vm_dup_step", site,
                    {"step": step, "direction": direction},
                )

        return outs

    # -- off-chip link hook ------------------------------------------------

    def on_xchip_exchange(
        self, arrays: tuple[np.ndarray, ...], site: str
    ) -> tuple[np.ndarray, ...]:
        """Maybe corrupt records crossing an off-chip link (returns copies).

        Called by a :class:`~repro.mesh.shard.ShardedMeshEngine`'s fault
        hooks with the outputs of every chip-spanning ``sort_by``,
        ``argsort``, ``route`` and ``transfer``, after the flat hook of
        the same site; site is ``xchip:<primitive label>``.
        ``xchip_drop`` truncates a suffix of every exchanged array (a
        lossy link), ``xchip_corrupt`` perturbs one word of one array (a
        noisy link).  Both are detected by the sharded engine's paranoid
        merge-point checks: record-count conservation and payload
        integrity.
        """
        i = self._match("xchip_drop", site)
        if i is not None and arrays and arrays[0].shape[0] > 0:
            rng = self._rngs[i]
            n = int(arrays[0].shape[0])
            keep = int(rng.integers(0, n))  # drop at least one record
            self._record(i, "xchip_drop", site, {"kept": keep, "dropped": n - keep})
            arrays = tuple(a[:keep] for a in arrays)
        i = self._match("xchip_corrupt", site)
        if i is not None and arrays and arrays[0].shape[0] > 0:
            rng = self._rngs[i]
            k = int(rng.integers(0, len(arrays)))
            a = np.array(arrays[k])
            flat = a.reshape(a.shape[0], -1)
            j = int(rng.integers(0, flat.shape[0]))
            c = int(rng.integers(0, flat.shape[1]))
            if flat.dtype.kind == "b":
                flat[j, c] = ~flat[j, c]
            else:
                flat[j, c] = flat[j, c] + flat.dtype.type(1)
            self._record(i, "xchip_corrupt", site, {"array": k, "record": j})
            arrays = tuple(a if m == k else arr for m, arr in enumerate(arrays))
        return arrays

    # -- worker-process hooks ----------------------------------------------

    def on_worker_batch(self, site: str) -> list[str]:
        """Process-level fault decisions for one batch inside a serving worker.

        Called by :func:`repro.serve.pool._worker_main` once per received
        batch with site ``worker:<id>``.  Returns the subset of
        ``worker_crash`` / ``worker_hang`` / ``worker_slow`` that fires on
        this batch (the *worker* then crashes/stalls itself — the
        injector only decides and logs).  ``worker_corrupt_reply`` is
        excluded: it applies to reply *bytes*, via :meth:`on_reply_bytes`.
        Each plan's RNG advances exactly once per batch, so the
        kill/stall schedule is a pure function of the plan and the
        worker's batch sequence.
        """
        fired = []
        for kind in ("worker_crash", "worker_hang", "worker_slow"):
            i = self._match(kind, site)
            if i is not None:
                self._record(i, kind, site, {"batch_seq": self.opportunities[kind]})
                fired.append(kind)
        return fired

    def on_reply_bytes(self, payload: bytes, site: str) -> bytes:
        """Maybe flip one byte of a serialized reply payload (a copy).

        Models corruption on the supervisor-worker link *after* the
        worker computed the reply checksum — the end-to-end argument: the
        digest travels with the payload, so the supervisor detects the
        mismatch, discards the reply, and retries, and a corrupt answer
        can never resolve a future or reach the result cache.
        """
        i = self._match("worker_corrupt_reply", site)
        if i is None or not payload:
            return payload
        rng = self._rngs[i]
        j = int(rng.integers(0, len(payload)))
        out = bytearray(payload)
        out[j] ^= 0xFF
        self._record(i, "worker_corrupt_reply", site, {"byte": j})
        return bytes(out)


def _words_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-level equality of two register grids (NaN == NaN)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def apply_adversarial(injector: FaultInjector, structure=None, qs=None) -> None:
    """Apply the injector's adversarial-input plans to algorithm inputs.

    Chaos drivers call this once, after building ``structure``/``qs`` and
    before handing them to a core algorithm.  Mutations are in place and
    logged like primitive-boundary injections.
    """
    if qs is not None and qs.m > 0:
        i = injector._match("corrupt_query_pointer", "input:query")
        if i is not None:
            rng = injector._rngs[i]
            j = int(rng.integers(0, qs.m))
            n_v = int(structure.n_vertices) if structure is not None else 2**31
            qs.current[j] = n_v + 17
            injector._record(
                i, "corrupt_query_pointer", "input:query",
                {"query": j, "value": int(qs.current[j])},
            )
        i = injector._match("nan_query_key", "input:query")
        if i is not None:
            rng = injector._rngs[i]
            j = int(rng.integers(0, qs.m))
            key = np.asarray(qs.key)
            key.reshape(qs.m, -1)[j, 0] = np.nan
            injector._record(i, "nan_query_key", "input:query", {"query": j})
    if structure is not None and structure.n_vertices > 0:
        i = injector._match("corrupt_structure_level", "input:structure")
        if i is not None:
            rng = injector._rngs[i]
            v = int(rng.integers(0, structure.n_vertices))
            structure.level[v] = structure.n_vertices + 23
            injector._record(
                i, "corrupt_structure_level", "input:structure",
                {"vertex": v, "value": int(structure.level[v])},
            )


# -- phase-boundary paranoia ----------------------------------------------


def paranoid_boundary(
    engine,
    where: str,
    structure=None,
    qs=None,
    splitting=None,
) -> None:
    """Re-run the structural validators at an algorithm phase boundary.

    No-op unless ``engine.paranoid``.  Wraps
    :mod:`repro.graphs.validate`-style checks over whichever inputs are
    given and raises :class:`InvariantViolation` (tagged ``where`` and
    the open span path) on the first failure.  Read-only: zero mesh
    steps, no output changes.
    """
    if engine is None or not getattr(engine, "paranoid", False):
        return
    # lazy import: mesh must stay importable without the graphs package
    from repro.graphs.validate import (
        check_query_state,
        check_search_structure,
        check_splitting_labels,
    )

    try:
        if structure is not None:
            check_search_structure(structure)
        if qs is not None:
            check_query_state(qs, structure)
        if splitting is not None:
            check_splitting_labels(splitting)
    except AssertionError as exc:  # ValidationError subclasses AssertionError
        raise invariant(where, str(exc), clock=engine.clock) from exc
