"""Tests for mesh geometry: shapes, regions, partitions, indexings."""

import numpy as np
import pytest

from repro.mesh.topology import (
    MeshShape,
    RegionSpec,
    block_partition,
    rowmajor_to_snake,
    snake_index,
    snake_to_rowmajor,
)


class TestMeshShape:
    def test_square(self):
        s = MeshShape.square(5)
        assert s.rows == s.cols == 5
        assert s.size == 25
        assert s.side == 5

    def test_for_size_exact(self):
        assert MeshShape.for_size(49).rows == 7

    def test_for_size_rounds_up(self):
        assert MeshShape.for_size(50).rows == 8

    def test_for_size_one(self):
        assert MeshShape.for_size(1).rows == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MeshShape(0, 3)
        with pytest.raises(ValueError):
            MeshShape.for_size(0)

    def test_side_of_rectangle(self):
        assert MeshShape(3, 9).side == 9


class TestRegionSpec:
    def test_basic_geometry(self):
        r = RegionSpec(2, 3, 4, 5)
        assert r.size == 20
        assert r.side == 5
        assert r.row_end == 6
        assert r.col_end == 8

    def test_contains(self):
        outer = RegionSpec(0, 0, 10, 10)
        assert outer.contains(RegionSpec(2, 2, 3, 3))
        assert not outer.contains(RegionSpec(8, 8, 3, 3))

    def test_contains_self(self):
        r = RegionSpec(1, 1, 4, 4)
        assert r.contains(r)

    def test_subregion_relative_coords(self):
        r = RegionSpec(2, 2, 6, 6)
        s = r.subregion(1, 1, 2, 2)
        assert (s.row0, s.col0) == (3, 3)

    def test_subregion_escape_rejected(self):
        r = RegionSpec(0, 0, 4, 4)
        with pytest.raises(ValueError):
            r.subregion(2, 2, 3, 3)

    def test_distance_to(self):
        a = RegionSpec(0, 0, 2, 2)
        b = RegionSpec(6, 6, 2, 2)
        assert a.distance_to(b) == 16  # bounding box spans 8 + 8

    def test_distance_symmetric(self):
        a = RegionSpec(0, 0, 3, 3)
        b = RegionSpec(1, 5, 2, 2)
        assert a.distance_to(b) == b.distance_to(a)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegionSpec(0, 0, 0, 3)

    def test_rejects_negative_origin(self):
        with pytest.raises(ValueError):
            RegionSpec(-1, 0, 2, 2)


class TestBlockPartition:
    def test_even_split(self):
        root = RegionSpec(0, 0, 8, 8)
        blocks = block_partition(root, 2, 2)
        assert len(blocks) == 4
        assert all(b.size == 16 for b in blocks)

    def test_covers_exactly(self):
        root = RegionSpec(0, 0, 7, 5)
        blocks = block_partition(root, 3, 2)
        # every processor lies in exactly one block
        cover = np.zeros((root.rows, root.cols), dtype=np.int64)
        for b in blocks:
            cover[b.row0:b.row_end, b.col0:b.col_end] += 1
        assert (cover == 1).all()

    def test_row_major_order(self):
        root = RegionSpec(0, 0, 4, 4)
        blocks = block_partition(root, 2, 2)
        assert (blocks[0].row0, blocks[0].col0) == (0, 0)
        assert (blocks[1].row0, blocks[1].col0) == (0, 2)
        assert (blocks[2].row0, blocks[2].col0) == (2, 0)

    def test_uneven_split_nonempty(self):
        root = RegionSpec(0, 0, 5, 5)
        blocks = block_partition(root, 3, 3)
        assert all(b.size >= 1 for b in blocks)

    def test_too_fine_rejected(self):
        with pytest.raises(ValueError):
            block_partition(RegionSpec(0, 0, 2, 2), 3, 1)

    def test_offset_root(self):
        root = RegionSpec(4, 4, 4, 4)
        blocks = block_partition(root, 2, 2)
        assert all(b.row0 >= 4 and b.col0 >= 4 for b in blocks)


class TestSnakeIndexing:
    def test_snake_3x3(self):
        idx = snake_index(3, 3)
        expect = np.array([[0, 1, 2], [5, 4, 3], [6, 7, 8]])
        assert (idx == expect).all()

    def test_snake_is_permutation(self):
        idx = snake_index(4, 6)
        assert sorted(idx.ravel().tolist()) == list(range(24))

    def test_round_trip(self):
        for rows, cols in ((3, 3), (4, 5), (1, 7), (6, 1)):
            fwd = rowmajor_to_snake(rows, cols)
            inv = snake_to_rowmajor(rows, cols)
            n = rows * cols
            assert (inv[fwd] == np.arange(n)).all()
            assert (fwd[inv] == np.arange(n)).all()

    def test_snake_adjacent_cells_are_mesh_neighbours(self):
        # the property sorting relies on: consecutive snake ranks are
        # physically adjacent processors
        rows, cols = 5, 4
        idx = snake_index(rows, cols)
        pos = {int(idx[r, c]): (r, c) for r in range(rows) for c in range(cols)}
        for k in range(rows * cols - 1):
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            assert abs(r1 - r2) + abs(c1 - c2) == 1
