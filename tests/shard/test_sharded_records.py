"""ShardedRecordSet: decomposed primitives and xchip faults.

The storage layer under the multi-chip mesh must reproduce the flat
numpy reference byte-for-byte (stable sort, inclusive scan on integers,
permutation route), and every off-chip fault kind must be caught at the
merge point by the paranoid checks.
"""

import numpy as np
import pytest

from repro.mesh.faults import (
    XCHIP_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InvariantViolation,
)
from repro.mesh.shard import (
    MultiChipMesh,
    ShardedMeshEngine,
    ShardedRecordSet,
    XChipCost,
)
from tests.conftest import RecordingTracer

MESHES = [
    MultiChipMesh.square(1, 8),
    MultiChipMesh.square(2, 4),
    MultiChipMesh(1, 3, 4),
    MultiChipMesh(3, 2, 2),
]

MESH_IDS = [f"{m.chip_rows}x{m.chip_cols}" for m in MESHES]


def make_columns(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "key": rng.integers(0, max(1, n // 3), n),  # duplicate keys: stability matters
        "payload": rng.normal(size=n),
        "tag": np.arange(n, dtype=np.int64),
    }


@pytest.mark.parametrize("mesh", MESHES, ids=MESH_IDS)
@pytest.mark.parametrize("n", [0, 1, 5, 37, 200])
class TestAgainstNumpyReference:
    def test_sort_by_matches_flat_stable_sort(self, mesh, n):
        cols = make_columns(n)
        order = np.argsort(cols["key"], kind="stable")
        with ShardedRecordSet(cols, mesh) as rs:
            rs.sort_by("key")
            got = rs.gather()
        for name in cols:
            assert got[name].tobytes() == cols[name][order].tobytes()

    def test_scan_matches_flat_cumsum(self, mesh, n):
        cols = make_columns(n)
        with ShardedRecordSet(cols, mesh) as rs:
            got = rs.scan("key")
        assert got.tobytes() == np.cumsum(cols["key"]).tobytes()

    def test_scan_max_matches_flat_accumulate(self, mesh, n):
        cols = make_columns(n)
        with ShardedRecordSet(cols, mesh) as rs:
            got = rs.scan("key", op="max")
        assert got.tobytes() == np.maximum.accumulate(cols["key"]).tobytes()

    def test_route_matches_flat_permutation(self, mesh, n):
        cols = make_columns(n)
        rng = np.random.default_rng(99)
        cols["dest"] = rng.permutation(n).astype(np.int64)
        with ShardedRecordSet(cols, mesh) as rs:
            rs.route("dest")
            got = rs.gather()
        for name in cols:
            want = np.empty_like(cols[name])
            want[cols["dest"]] = cols[name]
            assert got[name].tobytes() == want.tobytes()


class TestShardingShape:
    def test_contiguous_equal_cuts(self):
        rs = ShardedRecordSet(make_columns(10), MultiChipMesh.square(2, 2))
        assert rs.num_shards == 4
        assert rs.shard_counts() == [2, 3, 2, 3]  # linspace cuts of 10 into 4

    def test_empty_shards_when_records_scarce(self):
        rs = ShardedRecordSet(make_columns(2), MultiChipMesh.square(4, 2))
        counts = rs.shard_counts()
        assert sum(counts) == 2 and len(counts) == 16
        rs.sort_by("key")  # empty shards must not break the merge
        assert len(rs.gather()["key"]) == 2

    def test_route_rejects_non_permutation(self):
        cols = make_columns(6)
        cols["dest"] = np.array([0, 1, 2, 3, 4, 9], dtype=np.int64)
        with ShardedRecordSet(cols, MultiChipMesh.square(2, 2)) as rs:
            with pytest.raises(InvariantViolation, match="permutation"):
                rs.route("dest")

    def test_engine_topology_must_match(self):
        eng = ShardedMeshEngine(MultiChipMesh.square(2, 4))
        with pytest.raises(ValueError, match="does not match"):
            ShardedRecordSet(make_columns(8), MultiChipMesh.square(1, 8), engine=eng)


class TestCharging:
    def test_single_shard_charges_flat(self):
        mesh = MultiChipMesh.square(1, 8)
        eng = ShardedMeshEngine(mesh)
        tracer = RecordingTracer(clock=eng.clock)
        with ShardedRecordSet(make_columns(30), mesh, engine=eng) as rs:
            rs.sort_by("key")
        labels = [lbl for lbl, _ in tracer.charges]
        assert "shard:sort" in labels
        assert not [lbl for lbl in labels if lbl.startswith("xchip:")]

    def test_multi_shard_charges_intra_plus_exchange(self):
        mesh = MultiChipMesh.square(2, 4)
        eng = ShardedMeshEngine(mesh)
        tracer = RecordingTracer(clock=eng.clock)
        with ShardedRecordSet(make_columns(30), mesh, engine=eng) as rs:
            rs.sort_by("key")
            rs.scan("key")
        labels = [lbl for lbl, _ in tracer.charges]
        assert "shard:sort" in labels and "shard:scan" in labels
        assert "xchip:sort" in labels and "xchip:scan" in labels
        assert eng.clock.time > 0

    def test_exchange_cost_scales_with_distance_and_volume(self):
        near = MultiChipMesh.square(2, 4, xchip=XChipCost(hop=4.0, bandwidth=1.0))
        far = MultiChipMesh.square(2, 4, xchip=XChipCost(hop=40.0, bandwidth=0.5))
        assert far.exchange_steps(2, 100) > near.exchange_steps(2, 100)
        assert near.exchange_steps(0, 100) == 0.0
        assert near.exchange_steps(1, 200) > near.exchange_steps(1, 100)


@pytest.mark.parametrize("kind", XCHIP_FAULT_KINDS)
class TestXChipFaults:
    """Both off-chip fault kinds must be caught at the merge point."""

    def faulted_engine(self, kind):
        mesh = MultiChipMesh.square(2, 4)
        eng = ShardedMeshEngine(mesh, paranoid=True)
        eng.faults = FaultInjector(FaultPlan(seed=3, kind=kind, rate=1.0))
        return mesh, eng

    def test_detected_during_sort(self, kind):
        mesh, eng = self.faulted_engine(kind)
        with ShardedRecordSet(make_columns(50), mesh, engine=eng) as rs:
            with pytest.raises(InvariantViolation, match="xchip:merge"):
                rs.sort_by("key")
        assert eng.faults.injected, "the injector must have actually fired"

    def test_detected_during_gather(self, kind):
        mesh, eng = self.faulted_engine(kind)
        with ShardedRecordSet(make_columns(50), mesh, engine=eng) as rs:
            with pytest.raises(InvariantViolation, match="xchip:merge"):
                rs.gather()

    def test_single_chip_has_no_offchip_links(self, kind):
        mesh = MultiChipMesh.square(1, 8)
        eng = ShardedMeshEngine(mesh, paranoid=True)
        eng.faults = FaultInjector(FaultPlan(seed=3, kind=kind, rate=1.0))
        with ShardedRecordSet(make_columns(50), mesh, engine=eng) as rs:
            rs.sort_by("key")
            rs.gather()
        assert not eng.faults.injected
