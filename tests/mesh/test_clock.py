"""Tests for step accounting."""

import pytest

from repro.mesh.clock import CostModel, StepClock


class TestCharge:
    def test_accumulates(self):
        c = StepClock()
        c.charge(3)
        c.charge(4.5)
        assert c.time == 7.5

    def test_rejects_negative(self):
        c = StepClock()
        with pytest.raises(ValueError):
            c.charge(-1)

    def test_reset(self):
        c = StepClock()
        c.charge(5)
        c.reset()
        assert c.time == 0.0

    def test_charges_after_reset_start_from_zero(self):
        c = StepClock()
        c.charge(5)
        c.reset()
        c.charge(2)
        assert c.time == 2.0

    def test_zero_charge_allowed(self):
        c = StepClock()
        c.charge(0)
        assert c.time == 0.0

    def test_rejected_charge_changes_nothing(self):
        c = StepClock()
        c.tracer = _Recorder()
        c.charge(3, "a")
        with pytest.raises(ValueError):
            c.charge(-1, "b")
        assert c.time == 3.0
        assert c.tracer.seen == [("a", 3, 0)]


class _Recorder:
    def __init__(self):
        self.seen = []

    def on_charge(self, label, steps, volume):
        self.seen.append((label, steps, volume))


class TestTracerForwarding:
    def test_every_charge_forwarded_in_order(self):
        c = StepClock()
        c.tracer = _Recorder()
        c.charge(3, "sort", volume=64)
        c.charge(1.5, "scan")
        assert c.tracer.seen == [("sort", 3, 64), ("scan", 1.5, 0)]
        assert c.time == 4.5

    def test_reset_keeps_cost_model_and_tracer(self):
        model = CostModel(sort=7.0)
        c = StepClock(model)
        c.tracer = _Recorder()
        c.charge(4)
        c.reset()
        assert c.cost is model and c.tracer is not None
        c.charge(1, "after")
        assert c.tracer.seen[-1] == ("after", 1, 0)


class TestCostModel:
    def test_defaults_positive(self):
        cm = CostModel()
        assert cm.sort > 0 and cm.route > 0 and cm.scan > 0
        assert cm.broadcast > 0 and cm.local > 0

    def test_custom_model_used(self):
        c = StepClock(CostModel(sort=10.0))
        assert c.cost.sort == 10.0

    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(Exception):
            cm.sort = 1.0
