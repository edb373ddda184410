"""Committed bench documents are current and their mesh steps replay exactly.

``mesh_steps`` is the paper's cost measure and a pure function of the
code and the sweep point, so every committed point of these BENCH
documents is re-run in process (one call each, no timing, through the
bench's registered entry point) and must reproduce its recorded count
exactly.  E1 is Algorithm 1 and the synchronous baseline, E2 the
Constrained-Multisearch procedure, E11 the modelled construction of the
Kirkpatrick and Dobkin–Kirkpatrick structures, E13 the batching front
end over a restored point-location structure, E15 three of the paper's
multisearch drivers on a sharded mesh.  Wall times in the same documents
are not checked here: they belong to the runner's ``--compare`` gate.

Every committed document of a registered bench is also the current
schema, written by the runner (it carries ``provenance``), and renders
and self-diffs cleanly through ``repro.bench.report``.
"""

import importlib
import json
import sys

import pytest

from repro.bench import report
from repro.bench.runner import (
    BENCH_DIR,
    REGISTRY,
    REPO_ROOT,
    SCHEMA_VERSION,
    _extract_steps,
)

BENCHES = ("e1_hierdag", "e2_constrained", "e11_construct", "e13_serving", "e15_sharded")

#: every ``BENCH_<name>.json`` at the repo root whose name is a runner bench
COMMITTED = sorted(
    path
    for path in REPO_ROOT.glob("BENCH_*.json")
    if path.stem.removeprefix("BENCH_") in REGISTRY
)


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


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield {b: importlib.import_module(REGISTRY[b].module) for b in BENCHES}
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_committed_document_is_replayed():
    assert sorted(p.stem.removeprefix("BENCH_") for p in COMMITTED) == sorted(BENCHES)


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
def test_steps_replay_exactly(bench, point, bench_modules):
    assert "error" not in point, point
    spec = REGISTRY[bench]
    module = bench_modules[bench]
    params = point["params"]
    entry = getattr(module, spec.entry)
    if spec.setup is not None:
        result = entry(getattr(module, spec.setup)(**params), **params)
    else:
        result = entry(**params)
    assert _extract_steps(result) == point["mesh_steps"]
