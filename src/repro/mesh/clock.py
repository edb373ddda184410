"""Step accounting for the counted-primitive engine.

The paper measures algorithms in *mesh time steps*: in one step every
processor does O(1) local work and exchanges O(1) words with its four
neighbours.  :class:`StepClock` is the global clock; engine primitives
charge it ``constant * side`` steps, with the constants collected in
:class:`CostModel` (taken from the standard mesh-algorithmics literature,
e.g. Schnorr–Shamir 3n sorting).

The subtle part is *parallelism*: when the mesh is partitioned into disjoint
submeshes that work independently (the heart of Algorithms 1–3), the time
spent is the maximum over the submeshes, not the sum.  The clock exposes a
``parallel()`` context for exactly this::

    with clock.parallel() as par:
        for region in blocks:
            with par.branch():
                ...  # charges inside accrue to this branch
    # on exit the clock advances by max(branch totals)

Branches of one ``parallel()`` frame must operate on disjoint regions; the
engine enforces this.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["CostModel", "StepClock", "ParallelFrame"]


@dataclass(frozen=True)
class CostModel:
    """Per-primitive step constants; each primitive costs ``constant * side``.

    ``sort`` uses the optimal-sort constant (Schnorr–Shamir sorts an n-mesh
    in ~3*sqrt(n) steps).  ``route`` covers sort-based random-access
    read/write (a constant number of sorts plus scans, per the standard
    concurrent-read simulation).  ``local`` is the flat per-invocation cost
    of one SIMD local step (independent of side).
    """

    sort: float = 3.0
    route: float = 8.0
    scan: float = 2.0
    broadcast: float = 2.0
    compress: float = 3.0
    transfer: float = 1.0
    local: float = 1.0


@dataclass
class ParallelFrame:
    """Bookkeeping for one ``parallel()`` section."""

    start: float
    max_branch: float = 0.0
    open_branches: int = 0
    branches: list[float] = field(default_factory=list)


class StepClock:
    """Global mesh-step clock with nested-parallel charging."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost = cost_model if cost_model is not None else CostModel()
        self._accumulators: list[float] = [0.0]
        self._frames: list[ParallelFrame] = []
        #: attached :class:`repro.mesh.trace.Tracer` (None = tracing off);
        #: every charge is forwarded to its innermost open span, the only
        #: record of individual charges.
        self.tracer = None
        if os.environ.get("REPRO_TRACE"):
            from repro.mesh.trace import Tracer, register_traced_tracer

            register_traced_tracer(Tracer(clock=self))

    @property
    def time(self) -> float:
        """Total mesh steps charged so far (at the outermost level)."""
        if self._frames:
            raise RuntimeError("clock.time read inside an open parallel() frame")
        return self._accumulators[0]

    @property
    def current(self) -> float:
        """Steps charged to the innermost open accumulator (for diagnostics)."""
        return self._accumulators[-1]

    def charge(self, steps: float, label: str = "", volume: int = 0) -> None:
        """Charge ``steps`` mesh steps to the innermost accumulator.

        ``volume`` is the number of records the charged operation moved
        (engine primitives report it); it is metadata for the attached
        tracer only and never affects the step count.
        """
        if steps < 0:
            raise ValueError(f"cannot charge negative steps: {steps}")
        self._accumulators[-1] += steps
        if self.tracer is not None:
            self.tracer.on_charge(label, steps, volume)

    @contextmanager
    def parallel(self) -> Iterator["ParallelSection"]:
        """Open a parallel section: branch charges combine by max."""
        frame = ParallelFrame(start=self._accumulators[-1])
        self._frames.append(frame)
        section = ParallelSection(self, frame)
        try:
            yield section
        finally:
            popped = self._frames.pop()
            if popped.open_branches != 0:  # pragma: no cover - misuse guard
                raise RuntimeError("parallel() closed with an open branch")
            self._accumulators[-1] += popped.max_branch
            if self.tracer is not None:
                # report the fold (max vs sum of branch totals) so span
                # charges keep summing to clock.time exactly
                self.tracer.on_parallel_fold(popped.branches, popped.max_branch)

    def _open_branch(self, frame: ParallelFrame) -> None:
        if not self._frames or self._frames[-1] is not frame:
            raise RuntimeError("branch() used outside its parallel() frame")
        if frame.open_branches:
            raise RuntimeError("branches of one parallel() frame cannot nest")
        frame.open_branches += 1
        self._accumulators.append(0.0)

    def _close_branch(self, frame: ParallelFrame) -> None:
        elapsed = self._accumulators.pop()
        frame.branches.append(elapsed)
        frame.max_branch = max(frame.max_branch, elapsed)
        frame.open_branches -= 1

    def reset(self) -> None:
        """Zero the clock (only legal outside any parallel section)."""
        if self._frames:
            raise RuntimeError("cannot reset inside a parallel() frame")
        self._accumulators = [0.0]


class ParallelSection:
    """Handle yielded by :meth:`StepClock.parallel`."""

    def __init__(self, clock: StepClock, frame: ParallelFrame) -> None:
        self._clock = clock
        self._frame = frame

    @contextmanager
    def branch(self) -> Iterator[None]:
        """One concurrent branch; its charges contribute via max()."""
        self._clock._open_branch(self._frame)
        try:
            yield
        finally:
            self._clock._close_branch(self._frame)

    @property
    def branch_times(self) -> list[float]:
        return list(self._frame.branches)
