"""Tests for the counted-primitive mesh engine."""

import numpy as np
import pytest

from repro.mesh.engine import CapacityError, MeshEngine


class TestSort:
    def test_sorts_and_permutes_payload(self, engine8, rng):
        keys = rng.integers(0, 1000, 64)
        payload = np.arange(64)
        sk, sp = engine8.root.sort_by(keys, payload)
        assert (np.diff(sk) >= 0).all()
        assert (keys[sp] == sk).all()

    def test_stable(self, engine8):
        keys = np.array([1, 0, 1, 0] * 16)
        payload = np.arange(64)
        _, sp = engine8.root.sort_by(keys, payload)
        zeros = sp[:32]
        assert (np.diff(zeros) > 0).all()  # original order preserved within ties

    def test_charges_sort_cost(self, engine8):
        engine8.root.sort_by(np.arange(64))
        assert engine8.clock.time == engine8.clock.cost.sort * 8

    def test_subregion_charges_less(self, engine8):
        sub = engine8.root.subregion(0, 0, 4, 4)
        sub.sort_by(np.arange(16))
        assert engine8.clock.time == engine8.clock.cost.sort * 4

    def test_argsort(self, engine8, rng):
        keys = rng.uniform(size=64)
        order = engine8.root.argsort(keys)
        assert (np.diff(keys[order]) >= 0).all()


class TestRoute:
    def test_permutation(self, engine8, rng):
        dest = rng.permutation(64)
        (out,) = engine8.root.route(dest, np.arange(64))
        assert (out[dest] == np.arange(64)).all()

    def test_partial_with_discard(self, engine8):
        dest = np.array([5, -1, 3] + [-1] * 61)
        (out,) = engine8.root.route(dest, np.arange(64), fill=-7)
        assert out[5] == 0 and out[3] == 2
        assert out[0] == -7

    def test_duplicate_destinations_rejected(self, engine8):
        dest = np.zeros(64, dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate"):
            engine8.root.route(dest, np.arange(64))

    def test_out_of_range_rejected(self, engine8):
        dest = np.full(64, 64)
        with pytest.raises(ValueError, match="out of range"):
            engine8.root.route(dest, np.arange(64))

    def test_custom_output_size(self, engine8):
        dest = np.arange(64)
        (out,) = engine8.root.route(dest, np.arange(64), size=128)
        assert out.shape == (128,)

    def test_multiple_arrays_move_together(self, engine8, rng):
        dest = rng.permutation(64)
        a, b = np.arange(64), np.arange(64) * 2
        oa, ob = engine8.root.route(dest, a, b)
        assert (ob == oa * 2).all()


class TestRar:
    def test_concurrent_reads(self, engine8):
        table = np.arange(100, 164)
        addr = np.zeros(64, dtype=np.int64)  # everyone reads slot 0
        (got,) = engine8.root.rar(addr, table)
        assert (got == 100).all()

    def test_gather(self, engine8, rng):
        table = rng.uniform(size=64)
        addr = rng.integers(0, 64, 64)
        (got,) = engine8.root.rar(addr, table)
        assert (got == table[addr]).all()

    def test_invalid_address_gives_fill(self, engine8):
        table = np.arange(64)
        addr = np.full(64, -1)
        (got,) = engine8.root.rar(addr, table, fill=9)
        assert (got == 9).all()

    def test_2d_table(self, engine8):
        table = np.arange(128).reshape(64, 2)
        addr = np.arange(64)[::-1].copy()
        (got,) = engine8.root.rar(addr, table)
        assert (got == table[addr]).all()

    def test_out_of_range_rejected(self, engine8):
        with pytest.raises(ValueError):
            engine8.root.rar(np.full(64, 99), np.arange(64))

    def test_charges_route_cost(self, engine8):
        engine8.root.rar(np.arange(64), np.arange(64))
        assert engine8.clock.time == engine8.clock.cost.route * 8


class TestRaw:
    def test_combining_add(self, engine8):
        addr = np.zeros(64, dtype=np.int64)
        out = engine8.root.raw(addr, np.ones(64, dtype=np.int64), size=4)
        assert out[0] == 64 and out[1] == 0

    def test_combining_min_max(self, engine8):
        addr = np.arange(64) % 4
        vals = np.arange(64).astype(np.float64)
        mn = engine8.root.raw(addr, vals, size=4, combine="min")
        mx = engine8.root.raw(addr, vals, size=4, combine="max")
        assert mn[0] == 0 and mx[0] == 60
        assert mn[3] == 3 and mx[3] == 63

    def test_unwritten_slots_get_fill(self, engine8):
        addr = np.full(64, -1)
        addr[0] = 2
        out = engine8.root.raw(addr, np.ones(64), size=4, combine="max", fill=-5)
        assert out[2] == 1 and out[0] == -5

    def test_suppressed_writes(self, engine8):
        addr = np.full(64, -1)
        out = engine8.root.raw(addr, np.ones(64, dtype=np.int64), size=4)
        assert (out == 0).all()

    def test_unknown_combine_rejected(self, engine8):
        with pytest.raises(ValueError):
            engine8.root.raw(np.arange(64), np.ones(64), size=64, combine="xor")

    @pytest.mark.parametrize("extreme", ["min", "max"])
    def test_add_exact_at_int64_extremes(self, extreme):
        # the float64 bincount is exact only below 2**53; the magnitude
        # guard must hold for int64's minimum too, whose np.abs wraps to
        # itself (negative)
        info = np.iinfo(np.int64)
        big, step = (info.min, 1) if extreme == "min" else (info.max, -1)
        addr = np.array([0, 0, 1, 2])
        vals = np.array([big, step, 0, 0], dtype=np.int64)
        out = MeshEngine(2).root.raw(addr, vals, size=4)
        assert out.dtype == np.int64
        assert out.tolist() == [big + step, 0, 0, 0]


class TestScanReduceBroadcastCompress:
    def test_inclusive_scan(self, engine8, rng):
        v = rng.integers(0, 10, 64)
        assert (engine8.root.scan(v) == np.cumsum(v)).all()

    def test_exclusive_scan(self, engine8):
        v = np.ones(64, dtype=np.int64)
        out = engine8.root.scan(v, inclusive=False)
        assert (out == np.arange(64)).all()

    def test_scan_min(self, engine8):
        v = np.array([5.0, 3.0, 4.0, 1.0] * 16)
        out = engine8.root.scan(v, op="min")
        assert out[1] == 3.0 and out[3] == 1.0 and out[63] == 1.0

    def test_reduce_add(self, engine8):
        assert engine8.root.reduce(np.arange(64)) == 2016

    def test_reduce_empty_add(self, engine8):
        assert engine8.root.reduce(np.empty(0, dtype=np.int64)) == 0

    def test_reduce_empty_min_rejected(self, engine8):
        with pytest.raises(ValueError):
            engine8.root.reduce(np.empty(0), op="min")

    def test_broadcast_returns_value_and_charges(self, engine8):
        assert engine8.root.broadcast(42) == 42
        assert engine8.clock.time == engine8.clock.cost.broadcast * 8

    def test_compress(self, engine8):
        mask = np.arange(64) % 2 == 0
        count, vals = engine8.root.compress(mask, np.arange(64))
        assert count == 32
        assert (vals == np.arange(0, 64, 2)).all()

    def test_compress_multiple_arrays(self, engine8):
        mask = np.arange(64) < 3
        count, a, b = engine8.root.compress(mask, np.arange(64), np.arange(64) * 10)
        assert count == 3 and (b == a * 10).all()


class TestCapacity:
    def test_too_many_records_rejected(self):
        eng = MeshEngine(4, capacity=2)
        with pytest.raises(CapacityError):
            eng.root.sort_by(np.arange(33))

    def test_check_capacity(self, engine8):
        engine8.root.check_capacity(64, per_proc=1)
        with pytest.raises(CapacityError):
            engine8.root.check_capacity(65, per_proc=1)

    def test_per_proc_capped_by_engine(self):
        eng = MeshEngine(4, capacity=2)
        with pytest.raises(CapacityError):
            eng.root.check_capacity(100, per_proc=50)


class TestTransfer:
    def test_moves_data_and_charges_distance(self, engine8):
        src = engine8.root.subregion(0, 0, 2, 2)
        dst = engine8.root.subregion(6, 6, 2, 2)
        (out,) = engine8.transfer(src, dst, np.arange(4))
        assert (out == np.arange(4)).all()
        assert engine8.clock.time == engine8.clock.cost.transfer * 16

    def test_capacity_enforced(self):
        eng = MeshEngine(8, capacity=1)
        src = eng.root.subregion(0, 0, 4, 4)
        dst = eng.root.subregion(0, 4, 1, 1)
        with pytest.raises(CapacityError):
            eng.transfer(src, dst, np.arange(16))


class TestForProblem:
    def test_for_problem(self):
        eng = MeshEngine.for_problem(100)
        assert eng.size >= 100
        assert eng.shape.rows == eng.shape.cols == 10


class TestChargesAdd:
    """Every charge adds to the clock, whichever region it runs on; a
    phase run on every submesh at once is charged once via charge_phase."""

    def test_disjoint_region_charges_add(self, engine8):
        a = engine8.root.subregion(0, 0, 4, 4)
        b = engine8.root.subregion(4, 4, 4, 4)
        a.sort_by(np.arange(16))
        b.sort_by(np.arange(16))
        assert engine8.clock.time == 2 * engine8.clock.cost.sort * 4

    def test_transfer_after_region_work_adds(self, engine8):
        src = engine8.root.subregion(0, 0, 4, 4)
        dst = engine8.root.subregion(4, 0, 4, 4)
        (vals,) = src.sort_by(np.arange(16)[::-1])
        (out,) = engine8.transfer(src, dst, vals)
        dst.scan(out)
        cost = engine8.clock.cost
        want = cost.sort * 4 + cost.transfer * src.spec.distance_to(dst.spec)
        assert engine8.clock.time == want + cost.scan * 4

    def test_charge_phase_charges_one_submesh(self, engine8):
        steps = engine8.charge_phase(2, 3.0, "phase", extra=1.5, grid=4)
        assert steps == 3.0 * 2 + 1.5
        assert engine8.clock.time == steps

    def test_charge_local_independent_of_region(self, engine8):
        engine8.root.charge_local(3)
        engine8.root.subregion(0, 0, 1, 1).charge_local(3)
        assert engine8.clock.time == 2 * 3 * engine8.clock.cost.local
