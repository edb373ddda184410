"""The committed E15 blob never beats the flat mesh.

``BENCH_e15_sharded.json`` records modelled steps of three of the paper's
multisearch drivers (Algorithm 1, Constrained-Multisearch, interval
counting) on a sharded mesh.  ``test_steps_replay.py`` re-runs every
point and demands exact steps; this module checks that each driver's
``k_chip=1`` rows are the flat engine, then asserts the recorded shape:
a chiplet mesh is the flat mesh with slower boundary links, so no
``k_chip > 1`` row is below its flat anchor, finer chip grids never
cost less, and wider links never cost more.
"""

import json
import sys

import pytest

from repro.bench.runner import BENCH_DIR, REPO_ROOT
from repro.mesh.engine import MeshEngine
from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine

BLOB = REPO_ROOT / "BENCH_e15_sharded.json"


@pytest.fixture(scope="module")
def points():
    doc = json.loads(BLOB.read_text())
    assert doc["bench"] == "e15_sharded"
    for p in doc["points"]:
        assert "error" not in p, p
    return doc["points"]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_e15_sharded
    finally:
        sys.path.remove(str(BENCH_DIR))
    return bench_e15_sharded


def _by_params(points):
    return {
        (p["params"]["driver"], p["params"]["bandwidth"], p["params"]["k_chip"]):
        p["mesh_steps"]
        for p in points
    }


@pytest.mark.parametrize("driver", ["constrained", "hierdag", "intervals"])
def test_one_chip_rows_are_the_flat_engine(points, bench, driver):
    ctx = bench.sweep_setup(driver, 1, 1.0)
    flat_steps, flat_out = bench.drive(ctx, MeshEngine(bench.SIDE))
    one_chip = ShardedMeshEngine(MultiChipMesh.square(1, bench.SIDE))
    steps, out = bench.drive(ctx, one_chip)
    assert steps == flat_steps
    assert out.tobytes() == flat_out.tobytes()
    recorded = _by_params(points)
    assert recorded[(driver, 1.0, 1)] == recorded[(driver, 8.0, 1)] == flat_steps


@pytest.mark.parametrize("driver", ["constrained", "hierdag", "intervals"])
def test_chiplets_never_beat_the_flat_mesh(points, driver):
    steps = _by_params(points)

    def curve(bandwidth):
        return [steps[(driver, bandwidth, k)] for k in (1, 2, 4, 8)]

    narrow, wide = curve(1.0), curve(8.0)
    for row in (narrow, wide):
        # every sharded row pays at least its flat anchor...
        assert all(k_steps >= row[0] for k_steps in row[1:])
        # ...and a finer chip grid (nested boundaries, fewer lanes per
        # boundary) never costs less
        assert row == sorted(row)
    # wider links never cost more
    assert all(w <= n for w, n in zip(wide, narrow))
