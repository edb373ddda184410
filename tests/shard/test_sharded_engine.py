"""ShardedMeshEngine: off-chip charges and off-chip faults.

Chip-spanning primitives compute byte-identical outputs to the flat
engine.  Spanning primitives, transfers and phases charge the flat
engine's steps plus one ``xchip:<label>`` exchange priced by hop latency
and by volume over link bandwidth, so no sharded charge is ever below
the flat one; their outputs cross the off-chip links, where both
off-chip fault kinds fire and the paranoid merge-point checks must
catch them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.pointloc import locate_points_mesh
from repro.core.constrained import constrained_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import splitting_from_labels
from repro.graphs.adapters import ktree_directed_structure
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine
from repro.mesh.faults import (
    XCHIP_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InvariantViolation,
)
from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine, XChipCost
from repro.mesh.topology import RegionSpec, block_partition
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

    def test_spanning_primitive_charges_flat_plus_exchange(self):
        chips = MultiChipMesh.square(2, 4)
        eng = ShardedMeshEngine(chips)
        flat = MeshEngine(chips.shape)
        tracer = RecordingTracer(clock=eng.clock)
        for engine in (eng, flat):
            engine.root.sort_by(make_keys(30))
            engine.root.scan(make_keys(30))
        assert [lbl for lbl, _ in tracer.charges] == [
            "sort", "xchip:sort", "scan", "xchip:scan"
        ]
        # the flat charges are the flat engine's; the root spans 2 hops
        assert tracer.charges[0::2] == [
            ("sort", flat.clock.cost.sort * 8), ("scan", flat.clock.cost.scan * 8)
        ]
        exchange = chips.exchange_steps(2, 30)
        assert eng.clock.time == pytest.approx(flat.clock.time + 2 * exchange)
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


@st.composite
def chips_and_regions(draw):
    """A chip grid with link costs, two regions of its global mesh, and
    a phase (side, grid) within it."""
    chips = MultiChipMesh(
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 6)),
        XChipCost(
            hop=draw(st.floats(0.0, 8.0)),
            bandwidth=draw(st.sampled_from([0.5, 1.0, 8.0, 64.0, 1e6])),
        ),
    )
    rows, cols = chips.shape.rows, chips.shape.cols

    def region():
        row0 = draw(st.integers(0, rows - 1))
        col0 = draw(st.integers(0, cols - 1))
        return RegionSpec(
            row0, col0,
            draw(st.integers(1, rows - row0)), draw(st.integers(1, cols - col0)),
        )

    side = max(rows, cols)
    phase = (draw(st.integers(1, side)), draw(st.integers(1, side)))
    return chips, region(), region(), phase


class TestNeverBelowFlat:
    """A chiplet mesh is the flat mesh with slower boundary links, so no
    schedule runs faster on it: every sharded charge is at least the
    flat engine's charge for the same call."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=chips_and_regions(),
        volume=st.integers(0, 5000),
        constant=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        extra=st.sampled_from([0.0, 1.0]),
    )
    def test_every_charge_at_least_flat(self, case, volume, constant, extra):
        chips, src, dst, (side, grid) = case
        calls = [
            lambda e: e.charge_primitive(src, constant, "p", volume=volume),
            lambda e: e.charge_phase(
                side, constant, "ph", volume=volume, extra=extra, grid=grid
            ),
            lambda e: e.charge_transfer(src, dst, "t", volume=volume),
        ]
        for call in calls:
            sharded, flat = ShardedMeshEngine(chips), MeshEngine(chips.shape)
            call(sharded)
            call(flat)
            assert sharded.clock.time >= flat.clock.time


@settings(max_examples=100, deadline=None)
@given(case=chips_and_regions())
def test_tile_span_is_the_worst_tile(case):
    chips, _, _, (_, grid) = case
    root = RegionSpec(0, 0, chips.shape.rows, chips.shape.cols)
    tiles = block_partition(root, min(grid, root.rows), min(grid, root.cols))
    assert chips.tile_span(grid) == max(chips.chip_span(t) for t in tiles)


def test_spanning_cm_block_pays_an_exchange():
    """Constrained-Multisearch's rounds run on its ``g x g`` blocks; at
    k_chip=4 (side-32 mesh, blocks of side 5-6) some blocks straddle a
    chip boundary, so every round pays ``xchip:cm:round``.  A block is
    narrower than a chiplet, so the worst one crosses one boundary per
    axis: 2 hops, not the root's 6."""
    t = build_balanced_search_tree(2, 8, seed=1)
    structure = ktree_directed_structure(t)
    splitting = splitting_from_labels(t.alpha_splitter().comp, t.children, 0.5)
    keys = np.random.default_rng(2).uniform(t.leaf_keys[0], t.leaf_keys[-1], 200)

    def run(engine):
        tracer = RecordingTracer(clock=engine.clock)
        qs = QuerySet.start(keys, 0)
        constrained_multisearch(engine, structure, qs, splitting)
        return qs.current, tracer.charges

    # latency-only links: an exchange costs ``hop`` per chip-grid hop
    chips = MultiChipMesh.square(4, 8, XChipCost(hop=100.0, bandwidth=1e12))
    got, charges = run(ShardedMeshEngine(chips))
    want, flat_charges = run(MeshEngine(chips.shape))
    assert got.tobytes() == want.tobytes()
    rounds = [lbl for lbl, _ in flat_charges].count("cm:round")
    exchanges = [s for lbl, s in charges if lbl == "xchip:cm:round"]
    assert rounds and len(exchanges) == rounds
    assert exchanges == pytest.approx([200.0] * rounds)


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
