"""Committed bench documents are current and replay exactly.

``mesh_steps`` is the paper's cost measure and a pure function of the
code and the sweep point, and so is every per-point ``outputs`` value
(sizes, path lengths, answer checks).  Every point of every committed
``BENCH_<name>.json`` of a registered bench is re-run in process (one
untimed call through the bench's registered entry point) and must
reproduce its recorded ``mesh_steps`` and ``outputs`` exactly.  The
documents are found on disk, so a newly committed one is replayed
without editing this module.  Wall times in the same documents are not
checked here: ``python -m repro.bench.report --diff`` gates them.

Every committed document is also the current schema, written by the
runner (it carries ``provenance``), covers its bench's registered sweep,
and renders and self-diffs cleanly through ``repro.bench.report``.
"""

import json

import pytest

from repro.bench import report
from repro.bench.runner import REGISTRY, REPO_ROOT, SCHEMA_VERSION, replay_point

#: every ``BENCH_<name>.json`` at the repo root whose name is a runner bench
COMMITTED = sorted(
    path
    for path in REPO_ROOT.glob("BENCH_*.json")
    if path.stem.removeprefix("BENCH_") in REGISTRY
)
BENCHES = [path.stem.removeprefix("BENCH_") for path in COMMITTED]

#: registered benches with no document: the runner's self-test fixture,
#: and E9b, whose only value (a volume error against Qhull) is checked at
#: every point by ``test_paper_verdicts.py``
UNDOCUMENTED = {"selftest", "e9b_hull"}


def _points(bench):
    doc = json.loads((REPO_ROOT / f"BENCH_{bench}.json").read_text())
    assert doc["bench"] == bench
    return doc["points"]


def _cases():
    for bench in BENCHES:
        for p in _points(bench):
            params = p["params"]
            yield pytest.param(
                bench, p, id=f"{bench}-" + "-".join(f"{k}={v}" for k, v in params.items())
            )


def test_every_registered_bench_has_a_document():
    assert set(BENCHES) == set(REGISTRY) - UNDOCUMENTED


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
def test_committed_document_is_current(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["provenance"]
    assert report.main([str(path)]) == 0
    assert report.main(["--diff", str(path), str(path)]) == 0


@pytest.mark.parametrize("bench", BENCHES)
def test_blob_covers_the_registered_sweep(bench):
    recorded = [p["params"] for p in _points(bench)]
    assert recorded == [dict(pt) for pt in REGISTRY[bench].points]


@pytest.mark.parametrize("bench,point", _cases())
def test_steps_replay_exactly(bench, point):
    assert "error" not in point, point
    replayed = replay_point(bench, point["params"])
    assert replayed["mesh_steps"] == point["mesh_steps"]
    assert replayed.get("outputs") == point.get("outputs")
