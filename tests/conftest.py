"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh.engine import MeshEngine
from repro.mesh.trace import Tracer


class RecordingTracer(Tracer):
    """A tracer that also keeps every charge as ``(label, steps)``, in order.

    Span counters sum charges per label; tests that pin the exact charge
    sequence (same charges, same order) read :attr:`charges` instead.
    """

    def __init__(self, name: str = "run", clock=None) -> None:
        self.charges: list[tuple[str, float]] = []
        super().__init__(name, clock=clock)

    def on_charge(self, label: str, steps: float, volume: int = 0) -> None:
        self.charges.append((label, steps))
        super().on_charge(label, steps, volume)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def engine8() -> MeshEngine:
    return MeshEngine(8)


@pytest.fixture
def engine32() -> MeshEngine:
    return MeshEngine(32)
