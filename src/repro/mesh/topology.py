"""Mesh geometry: shapes, rectangular regions, block partitions, indexings.

The paper stores a size-``n`` problem on a ``sqrt(n) x sqrt(n)`` mesh and
repeatedly partitions it into grids of square submeshes (``B_i``-submeshes,
``delta``-submeshes).  This module is the pure-geometry layer: no data, no
costs, just coordinates.

Two linearizations are used throughout:

* **row-major** order — the default order in which a region's records are
  held in numpy arrays;
* **snake** (boustrophedon) order — the order in which mesh sorting
  algorithms rank elements (row 0 left-to-right, row 1 right-to-left, ...).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshShape",
    "RegionSpec",
    "block_partition",
    "block_spec",
    "snake_index",
    "snake_to_rowmajor",
    "rowmajor_to_snake",
]


@dataclass(frozen=True)
class MeshShape:
    """Dimensions of a (sub)mesh."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"mesh shape must be positive, got {self.rows}x{self.cols}")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def side(self) -> int:
        """Cost side: the dominant dimension (route/sort distances scale with it)."""
        return max(self.rows, self.cols)

    @classmethod
    def square(cls, side: int) -> "MeshShape":
        return cls(side, side)

    @classmethod
    def for_size(cls, n: int) -> "MeshShape":
        """Smallest square mesh with at least ``n`` processors."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        side = math.isqrt(n - 1) + 1  # ceil(sqrt(n)), exactly
        return cls(side, side)


@dataclass(frozen=True)
class RegionSpec:
    """A rectangular region ``[row0, row0+rows) x [col0, col0+cols)`` of a mesh."""

    row0: int
    col0: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"region must be non-empty, got {self}")
        if self.row0 < 0 or self.col0 < 0:
            raise ValueError(f"region origin must be non-negative, got {self}")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def side(self) -> int:
        return max(self.rows, self.cols)

    @property
    def row_end(self) -> int:
        return self.row0 + self.rows

    @property
    def col_end(self) -> int:
        return self.col0 + self.cols

    def contains(self, other: "RegionSpec") -> bool:
        return (
            self.row0 <= other.row0
            and self.col0 <= other.col0
            and other.row_end <= self.row_end
            and other.col_end <= self.col_end
        )

    def subregion(self, row0: int, col0: int, rows: int, cols: int) -> "RegionSpec":
        """A sub-rectangle given in coordinates relative to this region."""
        sub = RegionSpec(self.row0 + row0, self.col0 + col0, rows, cols)
        if not self.contains(sub):
            raise ValueError(f"subregion {sub} escapes parent {self}")
        return sub

    def distance_to(self, other: "RegionSpec") -> int:
        """Manhattan span of the bounding box of the two regions.

        This is the mesh distance a record may have to travel when moved
        from anywhere in ``self`` to anywhere in ``other``; inter-region
        transfers are charged proportionally to it.
        """
        row_lo = min(self.row0, other.row0)
        row_hi = max(self.row_end, other.row_end)
        col_lo = min(self.col0, other.col0)
        col_hi = max(self.col_end, other.col_end)
        return (row_hi - row_lo) + (col_hi - col_lo)


_CUTS_CAPACITY = 256
_CUTS_LOCK = threading.Lock()
_CUTS_CACHE: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()


def _cuts(length: int, parts: int) -> np.ndarray:
    """``np.linspace(0, length, parts + 1).astype(int)``, memoized.

    Grid geometry repeats endlessly in the simulators' inner loops (the
    same region cut into the same grid every call); the cut positions are
    pure functions of ``(length, parts)``.  Cached arrays are read-only.

    The cache is a lock-guarded bounded LRU: sharded dispatcher threads
    hit it concurrently, and eviction drops only the least-recently-used
    entry instead of wholesale-clearing the hot keys.  The linspace for a
    racing miss may be computed twice (outside the lock, to keep the
    critical section tiny) — both computations produce identical
    read-only arrays, so last-write-wins is harmless.
    """
    key = (length, parts)
    with _CUTS_LOCK:
        cuts = _CUTS_CACHE.get(key)
        if cuts is not None:
            _CUTS_CACHE.move_to_end(key)
            return cuts
    cuts = np.linspace(0, length, parts + 1).astype(int)
    cuts.setflags(write=False)
    with _CUTS_LOCK:
        _CUTS_CACHE[key] = cuts
        _CUTS_CACHE.move_to_end(key)
        while len(_CUTS_CACHE) > _CUTS_CAPACITY:
            _CUTS_CACHE.popitem(last=False)
    return cuts


def block_partition(region: RegionSpec, grid_rows: int, grid_cols: int) -> list[RegionSpec]:
    """Partition ``region`` into a ``grid_rows x grid_cols`` grid of blocks.

    Blocks are as equal as possible (remainders spread over the leading
    blocks) and returned in row-major grid order.  This is the paper's
    ``B_i``-partitioning when the divisibility assumption holds, and its
    natural generalization when it does not.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError("grid dimensions must be positive")
    if grid_rows > region.rows or grid_cols > region.cols:
        raise ValueError(
            f"cannot cut {region.rows}x{region.cols} region into "
            f"{grid_rows}x{grid_cols} non-empty blocks"
        )
    row_cuts = _cuts(region.rows, grid_rows)
    col_cuts = _cuts(region.cols, grid_cols)
    blocks: list[RegionSpec] = []
    for i in range(grid_rows):
        for j in range(grid_cols):
            blocks.append(
                region.subregion(
                    int(row_cuts[i]),
                    int(col_cuts[j]),
                    int(row_cuts[i + 1] - row_cuts[i]),
                    int(col_cuts[j + 1] - col_cuts[j]),
                )
            )
    return blocks


def block_spec(
    region: RegionSpec, grid_rows: int, grid_cols: int, i: int, j: int
) -> RegionSpec:
    """Block ``(i, j)`` of :func:`block_partition`, without materializing
    the whole grid.

    Uses the same linspace cuts, so ``block_spec(r, gr, gc, i, j) ==
    block_partition(r, gr, gc)[i * gc + j]`` exactly; grids of thousands of
    blocks where only one or two are needed (capacity spot-checks on the
    heaviest submesh) cost O(grid side) instead of O(grid size).
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError("grid dimensions must be positive")
    if grid_rows > region.rows or grid_cols > region.cols:
        raise ValueError(
            f"cannot cut {region.rows}x{region.cols} region into "
            f"{grid_rows}x{grid_cols} non-empty blocks"
        )
    if not (0 <= i < grid_rows and 0 <= j < grid_cols):
        raise ValueError(f"block ({i}, {j}) outside {grid_rows}x{grid_cols} grid")
    row_cuts = _cuts(region.rows, grid_rows)
    col_cuts = _cuts(region.cols, grid_cols)
    return region.subregion(
        int(row_cuts[i]),
        int(col_cuts[j]),
        int(row_cuts[i + 1] - row_cuts[i]),
        int(col_cuts[j + 1] - col_cuts[j]),
    )


def snake_index(rows: int, cols: int) -> np.ndarray:
    """Snake rank of each cell, as a ``(rows, cols)`` int array.

    Row 0 runs left-to-right, row 1 right-to-left, and so on.
    """
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    idx[1::2] = idx[1::2, ::-1]
    return idx


def snake_to_rowmajor(rows: int, cols: int) -> np.ndarray:
    """Permutation ``p`` with ``p[snake_rank] = rowmajor_index``."""
    snake = snake_index(rows, cols).ravel()  # rowmajor -> snake rank
    inv = np.empty_like(snake)
    inv[snake] = np.arange(rows * cols, dtype=np.int64)
    return inv


def rowmajor_to_snake(rows: int, cols: int) -> np.ndarray:
    """Permutation ``q`` with ``q[rowmajor_index] = snake_rank``."""
    return snake_index(rows, cols).ravel()
