"""Step accounting for the counted-primitive engine.

The paper measures algorithms in *mesh time steps*: in one step every
processor does O(1) local work and exchanges O(1) words with its four
neighbours.  :class:`StepClock` is the global clock; engine primitives
charge it ``constant * side`` steps, with the constants collected in
:class:`CostModel` (taken from the standard mesh-algorithmics literature,
e.g. Schnorr–Shamir 3n sorting).

Charges only add.  When the paper runs one schedule on every submesh of
a partition at once, the phase costs one submesh's schedule, and the
caller charges it once at the submesh side
(:meth:`repro.mesh.engine.MeshEngine.charge_phase`), not once per
submesh.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["CostModel", "StepClock"]


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


class StepClock:
    """Global mesh-step clock: the sum of every charge."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost = cost_model if cost_model is not None else CostModel()
        #: total mesh steps charged so far
        self.time = 0.0
        #: attached :class:`repro.mesh.trace.Tracer` (None = tracing off);
        #: every charge is forwarded to its innermost open span, the only
        #: record of individual charges.
        self.tracer = None
        if os.environ.get("REPRO_TRACE"):
            from repro.mesh.trace import Tracer, register_traced_tracer

            register_traced_tracer(Tracer(clock=self))

    def charge(self, steps: float, label: str = "", volume: int = 0) -> None:
        """Charge ``steps`` mesh steps.

        ``volume`` is the number of records the charged operation moved
        (engine primitives report it); it is metadata for the attached
        tracer only and never affects the step count.
        """
        if steps < 0:
            raise ValueError(f"cannot charge negative steps: {steps}")
        self.time += steps
        if self.tracer is not None:
            self.tracer.on_charge(label, steps, volume)

    def reset(self) -> None:
        """Zero the clock."""
        self.time = 0.0
