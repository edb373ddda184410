"""Tests for step accounting and parallel-max charging."""

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


class TestParallel:
    def test_max_of_branches(self):
        c = StepClock()
        with c.parallel() as par:
            with par.branch():
                c.charge(5)
            with par.branch():
                c.charge(9)
            with par.branch():
                c.charge(2)
        assert c.time == 9

    def test_empty_parallel_charges_nothing(self):
        c = StepClock()
        with c.parallel():
            pass
        assert c.time == 0

    def test_serial_after_parallel(self):
        c = StepClock()
        c.charge(1)
        with c.parallel() as par:
            with par.branch():
                c.charge(10)
        c.charge(2)
        assert c.time == 13

    def test_nested_parallel(self):
        c = StepClock()
        with c.parallel() as outer:
            with outer.branch():
                c.charge(1)
                with c.parallel() as inner:
                    with inner.branch():
                        c.charge(5)
                    with inner.branch():
                        c.charge(3)
                # branch total: 1 + max(5,3) = 6
            with outer.branch():
                c.charge(4)
        assert c.time == 6

    def test_branch_times_exposed(self):
        c = StepClock()
        with c.parallel() as par:
            with par.branch():
                c.charge(2)
            with par.branch():
                c.charge(7)
            assert par.branch_times == [2, 7]

    def test_time_read_inside_parallel_rejected(self):
        c = StepClock()
        with pytest.raises(RuntimeError):
            with c.parallel():
                _ = c.time

    def test_sibling_branches_cannot_nest(self):
        c = StepClock()
        with c.parallel() as par:
            with pytest.raises(RuntimeError):
                with par.branch():
                    with par.branch():
                        pass

    def test_reset_inside_parallel_rejected(self):
        c = StepClock()
        with pytest.raises(RuntimeError):
            with c.parallel():
                c.reset()


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
