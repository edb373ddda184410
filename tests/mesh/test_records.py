"""Unit tests for the packed vertex block (repro.mesh.records)."""

import numpy as np
import pytest

from repro.mesh.records import PackedVertices, packed_vertices


class _Struct:
    def __init__(self, n=6, d=2, p=2):
        rng = np.random.default_rng(1)
        self.adjacency = rng.integers(-1, n, (n, d)).astype(np.int64)
        self.level = rng.integers(0, 3, n).astype(np.int64)
        self.payload = rng.normal(size=(n, p)) if p else rng.normal(size=n)


class TestPackedVertices:
    def test_one_int64_block(self):
        st = _Struct(d=3, p=2)
        pv = packed_vertices(st)
        assert pv.block.dtype == np.int64
        assert pv.block.shape == (6, 3 + 1 + 2)
        assert pv.block.flags.c_contiguous

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_gather_matches_per_field_reads(self, p):
        # p=0 is a 1-D payload: the view must come back 1-D, as a
        # per-field gather would hand it to a successor
        st = _Struct(p=p)
        pv = packed_vertices(st)
        ids = np.array([5, 0, 0, 3])
        payload, adjacency, level = pv.gather(ids)
        for got, want in (
            (payload, st.payload[ids]),
            (adjacency, st.adjacency[ids]),
            (level, st.level[ids]),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_float_bits_exact(self):
        # the bit-cast round trip must preserve every float payload exactly
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.5])
        pv = PackedVertices(
            np.zeros((7, 1), dtype=np.int64), np.arange(7, dtype=np.int64), specials
        )
        got = pv.fields(pv.block)[0]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), specials.view(np.int64))

    def test_rejects_non_word_fields(self):
        with pytest.raises(TypeError):
            PackedVertices(
                np.zeros((3, 2), dtype=np.int32),
                np.zeros(3, dtype=np.int64),
                np.zeros((3, 1)),
            )


class TestCache:
    def test_packs_once(self):
        st = _Struct()
        assert packed_vertices(st) is packed_vertices(st)

    def test_repacked_when_arrays_replaced(self):
        st = _Struct()
        pv = packed_vertices(st)
        st.level = st.level + 1  # new array identity invalidates the cache
        pv2 = packed_vertices(st)
        assert pv2 is not pv
        np.testing.assert_array_equal(pv2.fields(pv2.block)[2], st.level)

    def test_unmarkable_structure_packs_every_call(self):
        class Frozen:
            __slots__ = ("adjacency", "level", "payload")

        st, src = Frozen(), _Struct()
        st.adjacency, st.level, st.payload = src.adjacency, src.level, src.payload
        a, b = packed_vertices(st), packed_vertices(st)
        assert a is not b
        np.testing.assert_array_equal(a.block, b.block)
