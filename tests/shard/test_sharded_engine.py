"""ShardedMeshEngine: off-chip charges and off-chip faults.

Chip-spanning primitives compute byte-identical outputs to the flat
engine.  Spanning primitives and phases charge per-chiplet work plus one
``xchip:<label>`` exchange priced by hop latency and by volume over link
bandwidth; their outputs cross the off-chip links, where both off-chip
fault kinds fire and the paranoid merge-point checks must catch them.
"""

import numpy as np
import pytest

from repro.apps.pointloc import locate_points_mesh
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import (
    XCHIP_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InvariantViolation,
)
from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine, XChipCost
from repro.util.rng import make_rng
from tests.conftest import RecordingTracer


def make_keys(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, max(1, n // 3), n)  # duplicate keys: stability matters


MESHES = [
    MultiChipMesh.square(1, 8),
    MultiChipMesh.square(2, 4),
    MultiChipMesh(1, 3, 4),
    MultiChipMesh(3, 2, 2),
]

MESH_IDS = [f"{m.chip_rows}x{m.chip_cols}" for m in MESHES]


def make_columns(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    return {
        "key": make_keys(n, seed),
        "payload": np.random.default_rng(seed + 1).normal(size=n),
        "tag": np.arange(n, dtype=np.int64),
    }


def run_both(mesh: MultiChipMesh, call):
    """``call(root)`` on a paranoid sharded engine and on the flat engine
    of the same shape; the two results must be byte-identical."""
    sharded = call(ShardedMeshEngine(mesh, paranoid=True).root)
    flat = call(MeshEngine(mesh.shape, paranoid=True).root)
    if isinstance(sharded, np.ndarray):
        sharded, flat = (sharded,), (flat,)
    assert [a.tobytes() for a in sharded] == [a.tobytes() for a in flat]
    return sharded


@pytest.mark.parametrize("mesh", MESHES, ids=MESH_IDS)
@pytest.mark.parametrize("n", [0, 1, 5, 37, 200])
class TestAgainstNumpyReference:
    """Chip-spanning primitives compute what the flat engine and numpy
    compute (stable sort, inclusive integer scan, permutation route), and
    paranoid mode raises nothing on a fault-free run."""

    def test_sort_by_matches_flat_stable_sort(self, mesh, n):
        cols = make_columns(n)
        order = np.argsort(cols["key"], kind="stable")
        got = run_both(
            mesh, lambda root: root.sort_by(cols["key"], cols["payload"], cols["tag"])
        )
        for out, name in zip(got, ("key", "payload", "tag")):
            assert out.tobytes() == cols[name][order].tobytes()

    def test_scan_matches_flat_cumsum(self, mesh, n):
        keys = make_keys(n)
        (got,) = run_both(mesh, lambda root: root.scan(keys))
        assert got.tobytes() == np.cumsum(keys).tobytes()

    def test_scan_max_matches_flat_accumulate(self, mesh, n):
        keys = make_keys(n)
        (got,) = run_both(mesh, lambda root: root.scan(keys, op="max"))
        assert got.tobytes() == np.maximum.accumulate(keys).tobytes()

    def test_route_matches_flat_permutation(self, mesh, n):
        cols = make_columns(n)
        dest = np.random.default_rng(99).permutation(n).astype(np.int64)
        got = run_both(
            mesh,
            lambda root: root.route(
                dest, cols["key"], cols["payload"], cols["tag"], size=n
            ),
        )
        for out, name in zip(got, ("key", "payload", "tag")):
            want = np.empty_like(cols[name])
            want[dest] = cols[name]
            assert out.tobytes() == want.tobytes()


class TestCharging:
    def test_single_chip_charges_flat(self):
        eng = ShardedMeshEngine(MultiChipMesh.square(1, 8))
        tracer = RecordingTracer(clock=eng.clock)
        eng.root.sort_by(make_keys(30))
        labels = [lbl for lbl, _ in tracer.charges]
        assert labels == ["sort"]

    def test_spanning_primitive_charges_chips_plus_exchange(self):
        eng = ShardedMeshEngine(MultiChipMesh.square(2, 4))
        tracer = RecordingTracer(clock=eng.clock)
        eng.root.sort_by(make_keys(30))
        eng.root.scan(make_keys(30))
        labels = [lbl for lbl, _ in tracer.charges]
        assert labels.count("sort") == 4 and labels.count("scan") == 4
        assert "xchip:sort" in labels and "xchip:scan" in labels
        assert tracer.total_steps == pytest.approx(eng.clock.time, abs=1e-9)

    def test_on_chip_subregion_charges_flat(self):
        eng = ShardedMeshEngine(MultiChipMesh.square(2, 4))
        tracer = RecordingTracer(clock=eng.clock)
        eng.root.subregion(4, 4, 4, 4).sort_by(make_keys(12))
        assert [lbl for lbl, _ in tracer.charges] == ["sort"]

    def test_exchange_cost_scales_with_distance_and_volume(self):
        near = MultiChipMesh.square(2, 4, xchip=XChipCost(hop=4.0, bandwidth=1.0))
        far = MultiChipMesh.square(2, 4, xchip=XChipCost(hop=40.0, bandwidth=0.5))
        assert far.exchange_steps(2, 100) > near.exchange_steps(2, 100)
        assert near.exchange_steps(0, 100) == 0.0
        assert near.exchange_steps(1, 200) > near.exchange_steps(1, 100)

    def test_phase_volume_pays_link_bandwidth(self):
        def xchip_steps(bandwidth, volume):
            eng = ShardedMeshEngine(
                MultiChipMesh.square(2, 8, XChipCost(bandwidth=bandwidth))
            )
            eng.charge_phase(16, 2.0, "p", volume=volume)
            return eng.clock.time

        assert xchip_steps(1.0, 0) == xchip_steps(8.0, 0)
        assert xchip_steps(1.0, 512) > xchip_steps(8.0, 512)


def test_hierdag_offchip_charges_see_bandwidth():
    """Algorithm 1's phase charges carry volume, so its exchanges pay
    serialization: at k_chip=4 the ``xchip:hierdag:*`` steps fall when
    the links widen."""
    rng = make_rng(0)
    sites = rng.uniform(0.0, 1.0, (200, 2))
    queries = rng.uniform(0.1, 0.9, (256, 2))

    def xchip_hierdag(bandwidth):
        eng = ShardedMeshEngine(
            MultiChipMesh.square(4, 8, XChipCost(bandwidth=bandwidth))
        )
        tracer = RecordingTracer(clock=eng.clock)
        out = locate_points_mesh(sites, queries, seed=1, engine=eng)
        charges = [
            (lbl, steps) for lbl, steps in tracer.charges
            if lbl.startswith("xchip:hierdag:")
        ]
        return out.triangle, charges

    narrow, narrow_charges = xchip_hierdag(1.0)
    wide, wide_charges = xchip_hierdag(8.0)
    assert narrow.tobytes() == wide.tobytes()
    assert narrow_charges and [l for l, _ in narrow_charges] == [
        l for l, _ in wide_charges
    ]
    assert sum(s for _, s in narrow_charges) > sum(s for _, s in wide_charges)


@pytest.mark.parametrize("kind", XCHIP_FAULT_KINDS)
class TestXChipFaults:
    """Both off-chip fault kinds must be caught at the merge point."""

    def faulted_engine(self, kind, k_chip=2, paranoid=True):
        eng = ShardedMeshEngine(
            MultiChipMesh.square(k_chip, 8 // k_chip), paranoid=paranoid
        )
        FaultInjector(FaultPlan(seed=3, kind=kind, rate=1.0)).install(eng)
        return eng

    def test_detected_during_sort(self, kind):
        eng = self.faulted_engine(kind)
        with pytest.raises(InvariantViolation, match="xchip:sort"):
            eng.root.sort_by(make_keys(50), np.arange(50))
        assert eng.faults.injected, "the injector must have actually fired"
        assert eng.faults.injected[0].site == "xchip:sort"

    def test_detected_during_argsort(self, kind):
        eng = self.faulted_engine(kind)
        with pytest.raises(InvariantViolation, match="xchip:merge"):
            eng.root.argsort(make_keys(50))

    def test_detected_during_route(self, kind):
        eng = self.faulted_engine(kind)
        dest = np.random.default_rng(1).permutation(50)
        with pytest.raises(InvariantViolation, match="xchip:route"):
            eng.root.route(dest, make_keys(50), np.arange(50.0))

    def test_detected_during_transfer(self, kind):
        eng = self.faulted_engine(kind)
        top = eng.root.subregion(0, 0, 4, 4)
        bottom = eng.root.subregion(4, 4, 4, 4)
        with pytest.raises(InvariantViolation, match="xchip:transfer"):
            eng.transfer(top, bottom, make_keys(10))

    def test_bare_engine_lets_the_fault_through(self, kind):
        eng = self.faulted_engine(kind, paranoid=False)
        keys = make_keys(50)
        out = eng.root.sort_by(keys, np.arange(50))
        assert eng.faults.injected
        assert out[0].tobytes() != np.sort(keys, kind="stable").tobytes()

    def test_on_chip_primitives_have_no_offchip_links(self, kind):
        eng = self.faulted_engine(kind)
        eng.root.subregion(0, 0, 4, 4).sort_by(make_keys(16))
        single = self.faulted_engine(kind, k_chip=1)
        single.root.sort_by(make_keys(50))
        single.root.route(np.arange(50)[::-1], make_keys(50))
        assert not eng.faults.injected and not single.faults.injected


def test_flat_fault_kinds_fire_unchanged_on_a_sharded_engine():
    eng = ShardedMeshEngine(MultiChipMesh.square(2, 4), paranoid=True)
    FaultInjector(FaultPlan(seed=3, kind="perturb_sort_key")).install(eng)
    with pytest.raises(InvariantViolation, match="sort:sorted"):
        eng.root.sort_by(make_keys(50))
    assert [f.site for f in eng.faults.injected] == ["sort"]
