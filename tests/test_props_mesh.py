"""Property-based tests (hypothesis) for the mesh substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh.clock import StepClock
from repro.mesh.engine import MeshEngine
from repro.mesh.machine import MeshVM
from repro.mesh.routing import route_permutation
from repro.mesh.scan import snake_prefix_sum
from repro.mesh.sorting import shearsort
from repro.mesh.topology import rowmajor_to_snake, snake_index

sides = st.integers(min_value=2, max_value=10)


@st.composite
def grid_and_values(draw, max_side=8, lo=-100, hi=100):
    side = draw(st.integers(2, max_side))
    n = side * side
    vals = draw(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    )
    return side, np.array(vals, dtype=np.int64)


class TestEngineProperties:
    @given(grid_and_values())
    @settings(max_examples=30, deadline=None)
    def test_sort_is_permutation_and_ordered(self, case):
        side, vals = case
        eng = MeshEngine(side)
        (out,) = eng.root.sort_by(vals)
        assert (np.diff(out) >= 0).all()
        assert sorted(out.tolist()) == sorted(vals.tolist())

    @given(grid_and_values())
    @settings(max_examples=30, deadline=None)
    def test_scan_last_equals_reduce(self, case):
        side, vals = case
        eng = MeshEngine(side)
        assert eng.root.scan(vals)[-1] == eng.root.reduce(vals)

    @given(grid_and_values(), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_route_then_inverse_is_identity(self, case, seed):
        side, vals = case
        n = side * side
        eng = MeshEngine(side)
        perm = np.random.default_rng(seed).permutation(n)
        (moved,) = eng.root.route(perm, vals)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        (back,) = eng.root.route(inv, moved)
        assert (back == vals).all()

    @given(grid_and_values())
    @settings(max_examples=30, deadline=None)
    def test_compress_preserves_selected(self, case):
        side, vals = case
        eng = MeshEngine(side)
        mask = vals > 0
        count, packed = eng.root.compress(mask, vals)
        assert count == int(mask.sum())
        assert (packed == vals[mask]).all()

    @given(grid_and_values())
    @settings(max_examples=30, deadline=None)
    def test_raw_add_conserves_mass(self, case):
        side, vals = case
        n = side * side
        eng = MeshEngine(side)
        addr = np.abs(vals) % n
        out = eng.root.raw(addr, np.ones(n, dtype=np.int64), size=n)
        assert out.sum() == n


class TestClockProperties:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_serial_charges_sum(self, charges):
        c = StepClock()
        for x in charges:
            c.charge(x)
        assert c.time == sum(charges)


class TestVMProperties:
    @given(grid_and_values(max_side=6))
    @settings(max_examples=15, deadline=None)
    def test_shearsort_agrees_with_numpy(self, case):
        side, vals = case
        vm = MeshVM(side)
        vm.load_rowmajor("k", vals)
        shearsort(vm, "k")
        snake = rowmajor_to_snake(side, side)
        got = np.empty_like(vals)
        got[snake] = vm.dump_rowmajor("k")
        assert (got == np.sort(vals)).all()

    @given(st.integers(2, 6), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_routing_delivers_every_packet(self, side, seed):
        n = side * side
        vm = MeshVM(side)
        perm = np.random.default_rng(seed).permutation(n)
        out = route_permutation(vm, perm, np.arange(n))
        assert sorted(out.tolist()) == list(range(n))
        assert (out[perm] == np.arange(n)).all()

    @given(grid_and_values(max_side=6, lo=0, hi=50))
    @settings(max_examples=15, deadline=None)
    def test_snake_scan_total(self, case):
        side, vals = case
        vm = MeshVM(side)
        vm.load_rowmajor("v", vals)
        snake_prefix_sum(vm, "v", "p")
        # the snake-last element holds the grand total
        snake = snake_index(side, side)
        last_pos = np.argwhere(snake == side * side - 1)[0]
        assert vm["p"][last_pos[0], last_pos[1]] == vals.sum()
