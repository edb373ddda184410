"""Tests for the segmented-scan primitive."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.engine import MeshEngine


class TestSegmentedScan:
    def test_add_inclusive(self, engine8):
        vals = np.arange(1, 65)
        segs = np.repeat(np.arange(8), 8)
        out = engine8.root.segmented_scan(vals, segs)
        for s in range(8):
            chunk = vals[s * 8 : (s + 1) * 8]
            assert (out[s * 8 : (s + 1) * 8] == np.cumsum(chunk)).all()

    def test_add_exclusive(self, engine8):
        vals = np.ones(64, dtype=np.int64)
        segs = np.repeat(np.arange(4), 16)
        out = engine8.root.segmented_scan(vals, segs, inclusive=False)
        assert (out == np.tile(np.arange(16), 4)).all()

    def test_single_segment_matches_scan(self, engine8, rng):
        vals = rng.integers(0, 10, 64)
        segs = np.zeros(64, dtype=np.int64)
        a = engine8.root.segmented_scan(vals, segs)
        b = np.cumsum(vals)
        assert (a == b).all()

    def test_every_element_its_own_segment(self, engine8, rng):
        vals = rng.integers(0, 10, 64)
        segs = np.arange(64)
        out = engine8.root.segmented_scan(vals, segs)
        assert (out == vals).all()

    def test_min_inclusive(self, engine8):
        vals = np.array([5.0, 3.0, 4.0, 9.0] * 16)
        segs = np.repeat(np.arange(16), 4)
        out = engine8.root.segmented_scan(vals, segs, op="min")
        assert (out.reshape(16, 4) == [5.0, 3.0, 3.0, 3.0]).all()

    def test_max_exclusive(self, engine8):
        vals = np.array([1, 5, 2, 7] * 16, dtype=np.int64)
        segs = np.repeat(np.arange(16), 4)
        out = engine8.root.segmented_scan(vals, segs, op="max", inclusive=False)
        lo = np.iinfo(np.int64).min
        assert (out.reshape(16, 4) == [lo, 1, 5, 5]).all()

    def test_unsorted_grouped_segments(self, engine8):
        # ids only need to be grouped, not sorted
        vals = np.ones(64, dtype=np.int64)
        segs = np.concatenate([np.full(32, 7), np.full(32, 2)])
        out = engine8.root.segmented_scan(vals, segs)
        assert out[31] == 32 and out[32] == 1

    def test_charges_scan_cost(self, engine8):
        engine8.root.segmented_scan(np.ones(64), np.zeros(64))
        assert engine8.clock.time == engine8.clock.cost.scan * 8

    def test_unknown_op_rejected(self, engine8):
        with pytest.raises(ValueError):
            engine8.root.segmented_scan(np.ones(64), np.zeros(64), op="mul")

    @pytest.mark.parametrize(
        "vals, segs, max_signs, min_signs",
        [
            # 0.0 == -0.0 but their bits differ: ties resolve by stable
            # rank, so max returns the later tied value and min the earlier
            ([0.0, -0.0, -0.0, 0.0], [0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]),
            ([-0.0, 0.0, 0.0, -0.0], [0, 0, 0, 0], [1, 0, 0, 1], [1, 1, 1, 1]),
            ([-0.0, 0.0, 0.0, -0.0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 0]),
        ],
    )
    def test_signed_zero_ties(self, engine8, vals, segs, max_signs, min_signs):
        vals, segs = np.array(vals), np.array(segs)
        mx = engine8.root.segmented_scan(vals, segs, op="max")
        mn = engine8.root.segmented_scan(vals, segs, op="min")
        assert np.signbit(mx).tolist() == [bool(b) for b in max_signs]
        assert np.signbit(mn).tolist() == [bool(b) for b in min_signs]

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("op", ["add", "min", "max"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_empty_input_keeps_dtype(self, engine8, dtype, op, inclusive):
        out = engine8.root.segmented_scan(
            np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64),
            op=op, inclusive=inclusive,
        )
        assert out.dtype == dtype and out.shape == (0,)

    @pytest.mark.parametrize("op, ident", [("min", np.inf), ("max", -np.inf)])
    def test_float_exclusive_boundary_identity_is_infinite(self, engine8, op, ident):
        vals = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        segs = np.array([0, 0, 0, 1, 1])
        out = engine8.root.segmented_scan(vals, segs, op=op, inclusive=False)
        mid = 1.0 if op == "min" else 3.0
        assert out.tolist() == [ident, 3.0, mid, ident, 5.0]

    @given(
        seed=st.integers(0, 10_000),
        n_segments=st.integers(1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_per_segment_cumsum(self, seed, n_segments):
        rng = np.random.default_rng(seed)
        eng = MeshEngine(8)
        sizes = rng.multinomial(64, np.ones(n_segments) / n_segments)
        segs = np.repeat(np.arange(n_segments), sizes)
        vals = rng.integers(-5, 10, 64)
        out = eng.root.segmented_scan(vals, segs)
        want = np.concatenate(
            [np.cumsum(vals[segs == s]) for s in range(n_segments) if (segs == s).any()]
        )
        assert (out == want).all()
