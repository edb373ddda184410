"""Cost profiling: per-label breakdown of the charges a tracer recorded.

The engine primitives tag every charge with a label (``"sort"``,
``"cm:round"``, ``"hierdag:phase2"``, ...), and an attached
:class:`~repro.mesh.trace.Tracer` counts the calls and steps of each label
on the span that was open.  :meth:`CostProfile.from_tracers` folds those
span counters into the flat breakdown the ablation benches and the bench
runner's ``--trace`` pass report — which stage of an algorithm pays what.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.mesh.clock import StepClock
from repro.mesh.trace import Span, Tracer

__all__ = ["CostProfile", "profiled"]


@dataclass
class CostProfile:
    """Aggregated charges per label."""

    by_label: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.by_label.values())

    def top(self, k: int = 10) -> list[tuple[str, float]]:
        """The k costliest labels, descending."""
        return sorted(self.by_label.items(), key=lambda kv: -kv[1])[:k]

    def fraction(self, prefix: str) -> float:
        """Fraction of total cost charged to labels starting with prefix."""
        if self.total == 0:
            return 0.0
        part = sum(v for k, v in self.by_label.items() if k.startswith(prefix))
        return part / self.total

    def render(self) -> str:
        total = self.total
        lines = [f"total mesh steps: {total:.0f}"]
        for label, cost in self.top(32):
            share = cost / total if total else 0.0  # all-zero-cost profiles
            # calls may lack a label present in by_label (partial from_dict
            # data, hand-built profiles) — render 0 charges, don't raise
            lines.append(
                f"  {label:<24} {cost:>12.0f}  ({share:6.1%},"
                f" {self.calls.get(label, 0)} charges)"
            )
        return "\n".join(lines)

    def merge(self, *others: "CostProfile") -> "CostProfile":
        """Combine profiles label-wise into a new profile.

        The parallel bench runner profiles each sweep point in its own
        worker process and merges the pieces into one per-bench breakdown.
        """
        out = CostProfile(by_label=dict(self.by_label), calls=dict(self.calls))
        for other in others:
            for label, cost in other.by_label.items():
                out.by_label[label] = out.by_label.get(label, 0.0) + cost
            for label, count in other.calls.items():
                out.calls[label] = out.calls.get(label, 0) + count
        return out

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"by_label": dict(self.by_label), "calls": dict(self.calls)}

    @classmethod
    def from_tracers(cls, tracers) -> "CostProfile":
        """Fold the per-label counters of every span of ``tracers``."""
        prof = cls()
        for tracer in tracers:
            prof._add_span(tracer.root)
        return prof

    def _add_span(self, span: Span) -> None:
        """Add the counters of ``span`` and its subtree (pre-order)."""
        for label, counter in span.counters.items():
            self.by_label[label] = self.by_label.get(label, 0.0) + counter.steps
            self.calls[label] = self.calls.get(label, 0) + counter.calls
        for child in span.children:
            self._add_span(child)

    @classmethod
    def from_dict(cls, data: dict) -> "CostProfile":
        """Inverse of :meth:`to_dict`; other keys (the ``memo`` counters
        older bench documents carry) are ignored."""
        return cls(
            by_label={str(k): float(v) for k, v in data.get("by_label", {}).items()},
            calls={str(k): int(v) for k, v in data.get("calls", {}).items()},
        )


@contextmanager
def profiled(clock: StepClock) -> Iterator[CostProfile]:
    """Record charges during the block; the yielded profile fills on exit.

    The block runs in a span of the clock's tracer, so an outer tracer
    keeps every charge; a clock without one gets a fresh tracer for the
    block, detached again on exit (also on an exception).
    """
    outer = clock.tracer
    tracer = outer if outer is not None else Tracer(clock=clock)
    prof = CostProfile()
    try:
        with tracer.span("profiled") as span:
            yield prof
    finally:
        if outer is None:
            tracer.detach(clock)
        prof._add_span(span)
