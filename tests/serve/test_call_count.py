"""A served batch makes a bounded number of Python calls and reads no
environment variable.

Wall-clock gates cannot tell a slower host from a slower program, but
the number of Python calls a batch makes does not depend on the host:
it counts the fixed per-batch host work (function calls, numpy calls)
that dominates small batches.  ``sys.setprofile`` counts every Python
and C call one ``run_batch`` makes, after warm-up (packed records, the
Algorithm 1 plan and Constrained-Multisearch constants are cached on
first use): an ``IntervalCountService`` on a restored 8192-interval
structure, and a ``PointLocationService`` on a restored Kirkpatrick DAG
over 1024 sites (22 levels, one Algorithm 1 level step each).

Each ceiling sits about 10% above the current count (2387 interval and
612 point-location calls, at 1 and at 64 rows alike, Python 3.11 with
numpy 2.4): interpreter and numpy versions that add or remove
Python-level wrappers move the count by a few percent.

With tracing off, the same batch (and a point-location batch) must make
no ``os.environ`` lookup at all: a tracer-less clock's ``traced()`` spans
cost an attribute check and a list check, never an environment read.
A batch without an engine (how pool workers call ``run_batch``) builds
one, and reads exactly ``REPRO_TRACE`` and ``REPRO_PARANOID`` once each.
"""

import os
import sys

import numpy as np
import pytest

from repro.serve import restore_service, snapshot_intervals, snapshot_pointloc

N_INTERVALS = 8192
CALL_CEILING = 2680
N_SITES = 1024
POINTLOC_CALL_CEILING = 680


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    rng = np.random.default_rng(2024)
    lefts = rng.uniform(0.0, 1000.0, N_INTERVALS)
    rights = lefts + rng.exponential(1.0, N_INTERVALS)
    path = tmp_path_factory.mktemp("calls") / "intervals.snap"
    snapshot_intervals(path, lefts, rights)
    return restore_service(path)


@pytest.fixture(scope="module")
def pointloc_service(tmp_path_factory):
    sites = np.random.default_rng(2024).random((N_SITES, 2))
    path = tmp_path_factory.mktemp("calls") / "pointloc.snap"
    snapshot_pointloc(path, sites, seed=7)
    return restore_service(path)


def _rows(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1000.0, m)
    return np.stack([a, a + rng.exponential(2.0, m)], axis=1)


def count_calls(fn, events=("call", "c_call"), code=None) -> int:
    """Calls ``fn()`` makes: every one, or only those running ``code``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in events and (code is None or frame.f_code is code):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def env_reads(fn) -> list[str]:
    """The variables ``fn()`` looks up in ``os.environ``, in order
    (``get``, ``in`` and ``[]`` all go through ``_Environ.__getitem__``)."""
    code = type(os.environ).__getitem__.__code__
    keys: list[str] = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is code:
            keys.append(frame.f_locals["key"])

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return keys


@pytest.mark.parametrize("m", [1, 64])
def test_run_batch_call_count(service, m, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    q = _rows(m, m)

    def batch():
        return service.run_batch(q, engine=service.make_engine(m, paranoid=False))

    for _ in range(2):
        batch()
    calls = count_calls(batch)
    assert calls <= CALL_CEILING, f"{calls} calls for one {m}-row batch"


@pytest.mark.parametrize("m", [1, 64])
def test_pointloc_batch_call_count(pointloc_service, m, monkeypatch):
    # one Algorithm 1 level step per DAG level, whatever the rows: the
    # level's charge from the plan's schedule, the advance and the child
    # test
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    svc = pointloc_service
    q = np.random.default_rng(m).random((m, 2))

    def batch():
        return svc.run_batch(q, engine=svc.make_engine(m, paranoid=False))

    for _ in range(2):
        batch()
    calls = count_calls(batch)
    assert calls <= POINTLOC_CALL_CEILING, f"{calls} calls for one {m}-row batch"


def test_env_read_probe_sees_reads(monkeypatch):
    monkeypatch.setenv("REPRO_UNRELATED", "1")
    assert env_reads(lambda: os.environ.get("REPRO_UNRELATED")) == ["REPRO_UNRELATED"]
    assert env_reads(lambda: "REPRO_UNRELATED" in os.environ) == ["REPRO_UNRELATED"]


@pytest.mark.parametrize("m", [1, 64])
def test_interval_batch_reads_no_environment(service, m, monkeypatch):
    # tracing off: an engine-carrying batch must not look at REPRO_TRACE
    # (or any other variable) per call
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    q = _rows(m, m)
    engine = service.make_engine(m, paranoid=False)
    service.run_batch(q, engine=service.make_engine(m, paranoid=False))
    assert env_reads(lambda: service.run_batch(q, engine=engine)) == []


def test_pointloc_batch_reads_no_environment(pointloc_env, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    svc = pointloc_env["service"]
    q = pointloc_env["queries"]
    engine = svc.make_engine(len(q), paranoid=False)
    svc.run_batch(q, engine=svc.make_engine(len(q), paranoid=False))
    assert env_reads(lambda: svc.run_batch(q, engine=engine)) == []


@pytest.mark.parametrize("kind", ["interval", "pointloc"])
@pytest.mark.parametrize("m", [1, 64])
def test_engineless_batch_reads_environment_once(
    service, pointloc_service, kind, m, monkeypatch
):
    # a pool worker's batch builds its own engine: the new clock looks up
    # REPRO_TRACE once and the engine REPRO_PARANOID once, both live so a
    # caller can switch tracing or paranoid mode between batches
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    svc = service if kind == "interval" else pointloc_service
    q = _rows(m, m) if kind == "interval" else np.random.default_rng(m).random((m, 2))
    svc.run_batch(q)
    assert sorted(env_reads(lambda: svc.run_batch(q))) == [
        "REPRO_PARANOID",
        "REPRO_TRACE",
    ]
