"""Multi-chip mesh geometry: a chip grid of node meshes with off-chip links.

The paper charges one ``sqrt(n) x sqrt(n)`` mesh; real large meshes are
built as a ``k_chip x k_chip`` grid of *chiplets*, each a ``k_node x
k_node`` node mesh, with off-chip links between adjacent chiplets that
are slower and narrower than the on-chip grid (chiplet-network-sim's
``MultiChipMesh`` topology).  :class:`MultiChipMesh` models exactly
that, as pure geometry plus an off-chip cost rule:

* the **global mesh** is the ``(chip_rows * k_node) x (chip_cols *
  k_node)`` node grid — every existing :class:`~repro.mesh.topology.
  RegionSpec` addresses it unchanged;
* each **chiplet** is an aligned ``k_node x k_node`` region of the
  global mesh, so a region spans the chip-grid hops of its bounding
  box (:meth:`chip_span`);
* an **off-chip exchange** costs ``hop * (chip-grid hops)`` for latency
  plus ``volume / (k_node * bandwidth)`` for serialization: a chip
  boundary exposes ``k_node`` link lanes, each moving ``bandwidth``
  records per step (:meth:`exchange_steps`).

The single-chip degenerate case ``chip_rows == chip_cols == 1`` is the
paper's flat mesh: every region lies on the one chip and no
exchange is ever charged, which is what makes the sharded engine
byte-identical to :class:`~repro.mesh.engine.MeshEngine` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mesh.topology import MeshShape, RegionSpec, block_partition

__all__ = ["XChipCost", "MultiChipMesh"]


@dataclass(frozen=True)
class XChipCost:
    """Cost constants of one off-chip link.

    ``hop`` is the per-chip-grid-hop latency of an exchange (off-chip
    SerDes crossings are much slower than the on-chip grid's unit step);
    ``bandwidth`` is the number of records one boundary lane moves per
    step (< 1 models a link narrower than the on-chip channel).
    """

    hop: float = 4.0
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.hop < 0:
            raise ValueError(f"off-chip hop cost must be >= 0, got {self.hop}")
        if self.bandwidth <= 0:
            raise ValueError(
                f"off-chip bandwidth must be positive, got {self.bandwidth}"
            )


@dataclass(frozen=True)
class MultiChipMesh:
    """A ``chip_rows x chip_cols`` grid of ``k_node x k_node`` chiplets."""

    chip_rows: int
    chip_cols: int
    k_node: int
    xchip: XChipCost = XChipCost()

    def __post_init__(self) -> None:
        if self.chip_rows < 1 or self.chip_cols < 1:
            raise ValueError(
                f"chip grid must be positive, got {self.chip_rows}x{self.chip_cols}"
            )
        if self.k_node < 1:
            raise ValueError(f"k_node must be >= 1, got {self.k_node}")

    @classmethod
    def square(cls, k_chip: int, k_node: int, xchip: XChipCost | None = None) -> "MultiChipMesh":
        return cls(k_chip, k_chip, k_node, xchip or XChipCost())

    @classmethod
    def for_problem(
        cls,
        n: int,
        chip_rows: int = 1,
        chip_cols: int | None = None,
        xchip: XChipCost | None = None,
    ) -> "MultiChipMesh":
        """Smallest multi-chip mesh of the given chip grid holding ``n`` records.

        The *global* side matches :meth:`MeshShape.for_size` rounded up
        to a multiple of the chip grid, so the chip partition stays
        exact.
        """
        if chip_cols is None:
            chip_cols = chip_rows
        side = MeshShape.for_size(max(1, n)).side
        grid = max(chip_rows, chip_cols)
        k_node = max(1, math.ceil(side / grid))
        return cls(chip_rows, chip_cols, k_node, xchip or XChipCost())

    # -- global geometry ---------------------------------------------------

    @property
    def shape(self) -> MeshShape:
        """The global node mesh every ``RegionSpec`` addresses."""
        return MeshShape(self.chip_rows * self.k_node, self.chip_cols * self.k_node)

    # -- chip spans ----------------------------------------------------------

    def chip_bbox(self, spec: RegionSpec) -> tuple[int, int, int, int]:
        """Inclusive chip-grid bounding box ``(ci_lo, ci_hi, cj_lo, cj_hi)``."""
        k = self.k_node
        if spec.row_end > self.chip_rows * k or spec.col_end > self.chip_cols * k:
            raise ValueError(f"region {spec} escapes global mesh {self.shape}")
        return (
            spec.row0 // k,
            (spec.row_end - 1) // k,
            spec.col0 // k,
            (spec.col_end - 1) // k,
        )

    def chip_span(self, *specs: RegionSpec) -> int:
        """Chip-grid Manhattan span of the union bounding box of ``specs``.

        The off-chip analogue of :meth:`RegionSpec.distance_to`: the
        number of chip-grid hops an exchange over these regions crosses.
        Zero when every region lives on one chiplet — no off-chip link
        is touched.
        """
        if not specs:
            raise ValueError("need at least one region")
        boxes = [self.chip_bbox(s) for s in specs]
        ci_lo = min(b[0] for b in boxes)
        ci_hi = max(b[1] for b in boxes)
        cj_lo = min(b[2] for b in boxes)
        cj_hi = max(b[3] for b in boxes)
        return (ci_hi - ci_lo) + (cj_hi - cj_lo)

    def tile_span(self, grid: int) -> int:
        """Chip span of the worst tile of the ``grid x grid`` tiling
        (:func:`~repro.mesh.topology.block_partition`) of the global mesh.

        A tile's row and column extents are independent, so the worst
        tile pairs the widest row band with the widest column band.  A
        grid finer than an axis leaves one-node bands on it.
        """
        root = RegionSpec(0, 0, self.shape.rows, self.shape.cols)
        bands = block_partition(root, min(grid, root.rows), 1)
        rows = max(hi - lo for lo, hi, _, _ in map(self.chip_bbox, bands))
        bands = block_partition(root, 1, min(grid, root.cols))
        cols = max(hi - lo for _, _, lo, hi in map(self.chip_bbox, bands))
        return rows + cols

    # -- off-chip cost rule --------------------------------------------------

    def exchange_steps(self, hops: int, volume: int) -> float:
        """Steps one off-chip exchange costs: latency + serialization.

        ``hop * hops`` latency for crossing ``hops`` chip boundaries,
        plus ``volume / (k_node * bandwidth)`` to serialize ``volume``
        records through a boundary's ``k_node`` lanes.  Zero when
        ``hops`` is zero: an exchange inside one chiplet is on-chip, and
        the flat charge already holds it.
        """
        if hops <= 0:
            return 0.0
        return self.xchip.hop * hops + volume / (self.k_node * self.xchip.bandwidth)
