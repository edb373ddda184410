"""Sharded multi-chip mesh: chip-grid topology, hierarchical charging,
and per-chiplet record stores (host-resident numpy columns).

See DESIGN.md §9.  The single-chip degenerate case (``chip_rows ==
chip_cols == 1``) is byte-identical — outputs *and* total charged steps
— to the flat :class:`~repro.mesh.engine.MeshEngine`, which is the
property suite's anchor (``tests/shard/``).
"""

from repro.mesh.shard.engine import ShardedMeshEngine
from repro.mesh.shard.records import HostShard, ShardedRecordSet
from repro.mesh.shard.topology import MultiChipMesh, XChipCost

__all__ = [
    "MultiChipMesh",
    "XChipCost",
    "ShardedMeshEngine",
    "HostShard",
    "ShardedRecordSet",
]
