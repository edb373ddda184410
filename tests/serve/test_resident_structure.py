"""The served interval path keeps its rank structures resident.

A multisearch loads the whole search structure into the mesh and moves
only the queries.  The loaded store holds the structure's own records as
read-only views, so a batch neither copies the records nor can write
through to them.  These tests pin the served answers and mesh steps to
the values of the sort-and-copy load, bound what one small batch
allocates, and show that faults injected at primitive outputs leave the
records byte-for-byte intact.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.mesh.faults import FAULT_KINDS, FaultInjector, FaultPlan, InvariantViolation
from repro.serve import restore_service, snapshot_intervals

N_INTERVALS = 8192
BATCH_SIZES = (2, 1, 8, 32, 2, 128)

#: the sort-and-copy load's outputs over the batches of ``golden_batches``:
#: mesh steps per batch, and sha256 of all counts as little-endian int64
GOLDEN_STEPS = [58502.0] * len(BATCH_SIZES)
GOLDEN_COUNTS_SHA256 = "6c7d5738e264f98e56f9da67776b073641fade26809754303216142553aaec36"
#: sha256 of both rank structures' adjacency, payload and level arrays
GOLDEN_STRUCTURES_SHA256 = "e460cdb0d60994b8981702f6e2484e4a664be4324daa29067676a6071f547abc"


@pytest.fixture(scope="module")
def interval_set():
    rng = np.random.default_rng(2024)
    lefts = rng.uniform(0.0, 1000.0, N_INTERVALS)
    rights = lefts + rng.exponential(1.0, N_INTERVALS)
    return lefts, rights


@pytest.fixture(scope="module")
def snapshot_path(interval_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("resident") / "intervals.snap"
    snapshot_intervals(path, *interval_set)
    return path


def golden_batches() -> list[np.ndarray]:
    rng = np.random.default_rng(99)
    batches = []
    for m in BATCH_SIZES:
        a = rng.uniform(0.0, 1000.0, m)
        batches.append(np.stack([a, a + rng.exponential(2.0, m)], axis=1))
    return batches


def structures_sha256(service) -> str:
    h = hashlib.sha256()
    for st in (service.st_l, service.st_r):
        for a in (st.adjacency, st.payload, st.level):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def serve_golden(service) -> tuple[list[float], str, list[np.ndarray]]:
    steps, counts = [], []
    for q in golden_batches():
        results, batch_steps = service.run_batch(q)
        steps.append(float(batch_steps))
        counts.append(np.array(results, dtype="<i8"))
    digest = hashlib.sha256(np.concatenate(counts).tobytes()).hexdigest()
    return steps, digest, counts


def test_served_answers_and_steps_match_the_copying_load(snapshot_path, interval_set):
    service = restore_service(snapshot_path)
    assert structures_sha256(service) == GOLDEN_STRUCTURES_SHA256
    steps, digest, counts = serve_golden(service)
    assert steps == GOLDEN_STEPS
    assert digest == GOLDEN_COUNTS_SHA256
    lefts, rights = interval_set
    for q, got in zip(golden_batches(), counts):
        want = ((lefts[None, :] <= q[:, 1:2]) & (rights[None, :] >= q[:, 0:1])).sum(axis=1)
        assert np.array_equal(got, want)


def test_primitive_faults_cannot_write_through_to_the_records(snapshot_path):
    service = restore_service(snapshot_path)
    serve_golden(service)
    injected = 0
    for paranoid in (False, True):
        for seed in (1, 2, 3):
            plans = [FaultPlan(seed=seed, kind=k, max_faults=None) for k in FAULT_KINDS]
            for q in golden_batches():
                engine = service.make_engine(q.shape[0], paranoid=paranoid)
                injector = FaultInjector(*plans).install(engine)
                try:
                    service.run_batch(q, engine=engine)
                except InvariantViolation:
                    pass  # paranoid mode detected the fault
                injected += len(injector.injected)
    assert injected > 0
    assert structures_sha256(service) == GOLDEN_STRUCTURES_SHA256


def test_small_batch_allocates_a_fraction_of_the_records(snapshot_path):
    service = restore_service(snapshot_path)
    q = golden_batches()[0]
    for _ in range(2):
        service.run_batch(q)
    tracemalloc.start()
    try:
        service.run_batch(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    st = service.st_l
    record_bytes = st.adjacency.nbytes + st.payload.nbytes + st.level.nbytes
    assert peak < record_bytes / 2
