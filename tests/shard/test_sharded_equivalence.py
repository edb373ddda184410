"""Sharded vs. single-mesh byte-identity across the engine-taking drivers.

The anchor property of :mod:`repro.mesh.shard`: at ``k_chip == 1`` the
sharded engine *is* the flat engine — byte-identical outputs AND total
charged steps — and at ``k_chip > 1`` outputs stay byte-identical while
the run pays ``xchip:*`` exchanges on top of the flat charges, so it
costs more than on the flat engine, and its span sums still equal
``clock.time`` exactly.

The drivers (linepoly, pointloc, interval count/report) run with
explicit engines of one global shape.
"""

import pytest

from repro.apps.interval_search import (
    count_intersections_mesh,
    report_intersections_mesh,
    setup_interval_search,
)
from repro.apps.linepoly import line_polyhedron_queries
from repro.apps.pointloc import locate_points_mesh
from repro.bench.workloads import random_intervals, random_lines, sphere_points
from repro.geometry.dk3d import build_dk_hierarchy
from repro.mesh.engine import MeshEngine
from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine
from repro.util.rng import make_rng
from tests.conftest import RecordingTracer

#: one global mesh side shared by every engine in this suite, so flat and
#: sharded runs always agree on geometry (32 = 1024 processors covers
#: every workload below)
SIDE = 32


def flat_engine() -> MeshEngine:
    return MeshEngine(SIDE)


def sharded_engine(k_chip: int, **kwargs) -> ShardedMeshEngine:
    assert SIDE % k_chip == 0
    return ShardedMeshEngine(MultiChipMesh.square(k_chip, SIDE // k_chip), **kwargs)


def run_pair(run, k_chip: int):
    """Run ``run(engine)`` on a flat and a sharded engine; return both sides.

    Both clocks carry a :class:`RecordingTracer`; the sharded one is
    returned for its span sums.
    """
    flat = flat_engine()
    sharded = sharded_engine(k_chip)
    RecordingTracer(clock=flat.clock)
    tracer = RecordingTracer(clock=sharded.clock)
    flat_out = run(flat)
    sharded_out = run(sharded)
    return flat, flat_out, sharded, sharded_out, tracer


def assert_xchip_behavior(flat, sharded, tracer, k_chip: int) -> None:
    """k=1: identical steps, no xchip labels.  k>1: xchip labels, more
    steps than flat.  Both: exact span sums."""
    xchip = [lbl for lbl, _ in tracer.charges if lbl.startswith("xchip:")]
    if k_chip == 1:
        assert sharded.clock.time == flat.clock.time
        # same charges, same labels, same order
        assert tracer.charges == flat.clock.tracer.charges
        assert not xchip
    else:
        assert xchip, "a spanning run must cross off-chip links"
        assert sharded.clock.time > flat.clock.time
    assert tracer.total_steps == pytest.approx(sharded.clock.time, abs=1e-9)


# -- engine-taking drivers ----------------------------------------------------


@pytest.fixture(scope="module")
def linepoly_inputs():
    hier = build_dk_hierarchy(sphere_points(120, seed=0), seed=1)
    p0, d = random_lines(40, seed=3)
    return hier, p0, d


@pytest.fixture(scope="module")
def pointloc_inputs():
    rng = make_rng(0)
    sites = rng.uniform(0.0, 1.0, (60, 2))
    queries = rng.uniform(0.1, 0.9, (50, 2))
    return sites, queries


@pytest.fixture(scope="module")
def interval_inputs():
    lefts, rights = random_intervals(200, seed=0, domain=100.0, mean_len=6.0)
    rng = make_rng(1)
    a = rng.uniform(0, 100, 40)
    b = a + rng.uniform(0.1, 15, 40)
    return setup_interval_search(lefts, rights), a, b


@pytest.mark.parametrize("k_chip", [1, 2, 4])
class TestEngineTakingDrivers:
    def test_linepoly(self, linepoly_inputs, k_chip):
        hier, p0, d = linepoly_inputs

        def run(engine):
            return line_polyhedron_queries(hier, p0, d, engine=engine)

        flat, f, sharded, s, tracer = run_pair(run, k_chip)
        assert s.intersects.tobytes() == f.intersects.tobytes()
        assert s.tangent_left.tobytes() == f.tangent_left.tobytes()
        assert s.tangent_right.tobytes() == f.tangent_right.tobytes()
        assert s.planes.tobytes() == f.planes.tobytes()
        if k_chip == 1:
            assert s.mesh_steps == f.mesh_steps
        assert_xchip_behavior(flat, sharded, tracer, k_chip)

    def test_pointloc(self, pointloc_inputs, k_chip):
        sites, queries = pointloc_inputs

        def run(engine):
            return locate_points_mesh(sites, queries, seed=1, engine=engine)

        flat, f, sharded, s, tracer = run_pair(run, k_chip)
        assert s.triangle.tobytes() == f.triangle.tobytes()
        if k_chip == 1:
            assert s.mesh_steps == f.mesh_steps
        assert_xchip_behavior(flat, sharded, tracer, k_chip)

    def test_interval_count(self, interval_inputs, k_chip):
        setup, a, b = interval_inputs

        def run(engine):
            return count_intersections_mesh(setup, a, b, engine=engine)

        flat, (fc, fs), sharded, (sc, ss), tracer = run_pair(run, k_chip)
        assert sc.tobytes() == fc.tobytes()
        if k_chip == 1:
            assert ss == fs
        assert_xchip_behavior(flat, sharded, tracer, k_chip)

    def test_interval_report(self, interval_inputs, k_chip):
        setup, a, b = interval_inputs

        def run(engine):
            return report_intersections_mesh(setup, a, b, engine=engine)

        flat, (fr, fs), sharded, (sr, ss), tracer = run_pair(run, k_chip)
        assert len(sr) == len(fr)
        for got, want in zip(sr, fr):
            assert got.tobytes() == want.tobytes()
        if k_chip == 1:
            assert ss == fs
        assert_xchip_behavior(flat, sharded, tracer, k_chip)

