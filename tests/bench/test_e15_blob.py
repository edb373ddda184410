"""The committed E15 blob is live: steps reproduce and show the crossover.

``BENCH_e15_sharded.json`` records modelled steps only — a pure cost
model with no wall-clock component — so this gate can re-run every
sweep point (milliseconds each) and demand *exact* agreement, then
assert the acceptance criterion itself: off-chip exchange cost
overtakes the intra-chip parallelism win as ``k_chip`` grows.
"""

import json
import sys

import pytest

from repro.bench.runner import BENCH_DIR, REGISTRY, REPO_ROOT, point_result

BLOB = REPO_ROOT / "BENCH_e15_sharded.json"


@pytest.fixture(scope="module")
def points():
    doc = json.loads(BLOB.read_text())
    assert doc["bench"] == "e15_sharded"
    for p in doc["points"]:
        assert "error" not in p, p
        # schema-1 blobs also record that both engine modes agreed
        assert p.get("mesh_steps_equal") is not False
    return doc["points"]


@pytest.fixture(scope="module")
def run_once():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from bench_e15_sharded import run_once
    finally:
        sys.path.remove(str(BENCH_DIR))
    return run_once


def _by_params(points):
    return {
        (p["params"]["bandwidth"], p["params"]["k_chip"]): point_result(p)["mesh_steps"]
        for p in points
    }


def test_blob_covers_the_registered_sweep(points):
    recorded = [p["params"] for p in points]
    assert recorded == [dict(pt) for pt in REGISTRY["e15_sharded"].points]


def test_steps_reproduce_exactly(points, run_once):
    # deterministic cost model: any drift is a real accounting change
    # and must come with a regenerated blob
    for p in points:
        assert run_once(**p["params"]) == point_result(p)["mesh_steps"], p["params"]


def test_crossover_recorded(points):
    steps = _by_params(points)
    for bandwidth in (1.0, 8.0):
        anchor = steps[(bandwidth, 1)]
        # sharding pays off at first...
        assert steps[(bandwidth, 2)] < anchor
        # ...and the curve turns once exchanges dominate
        assert steps[(bandwidth, 8)] > min(
            steps[(bandwidth, k)] for k in (2, 4)
        )
    # narrow links: by k_chip=8 sharding costs MORE than not sharding
    assert steps[(1.0, 8)] > steps[(1.0, 1)]
    # 8x wider links move the minimum out to k_chip=4
    assert steps[(8.0, 4)] == min(steps[(8.0, k)] for k in (1, 2, 4, 8))
