"""Sharded multi-chip mesh: chip-grid topology and off-chip charging.

See DESIGN.md §9.  :class:`ShardedMeshEngine` runs every engine
primitive and multisearch phase unchanged and charges each the flat
engine's steps, plus an ``xchip:*`` charge for the off-chip exchange of
any that spans chiplets; the off-chip fault kinds (``xchip_drop`` /
``xchip_corrupt``) fire on the outputs of its chip-spanning primitives.  The single-chip degenerate
case (``chip_rows == chip_cols == 1``) is byte-identical — outputs,
total charged steps and the charge sequence — to the flat
:class:`~repro.mesh.engine.MeshEngine`, which is the property suite's
anchor (``tests/shard/``).
"""

from repro.mesh.shard.engine import ShardedMeshEngine
from repro.mesh.shard.topology import MultiChipMesh, XChipCost

__all__ = ["MultiChipMesh", "XChipCost", "ShardedMeshEngine"]
