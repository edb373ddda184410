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

Each ceiling sits about 10% above the current count (2433 interval and
807 point-location calls, at 1 and at 64 rows alike, Python 3.11 with
numpy 2.4): interpreter and numpy versions that add or remove
Python-level wrappers move the count by a few percent.

With tracing off, the same batch (and a point-location batch) must make
no ``os.environ`` lookup at all: a tracer-less clock's ``traced()`` spans
cost an attribute check and a list check, never an environment read.
"""

import os
import sys

import numpy as np
import pytest

from repro.serve import restore_service, snapshot_intervals, snapshot_pointloc

N_INTERVALS = 8192
CALL_CEILING = 2680
N_SITES = 1024
POINTLOC_CALL_CEILING = 890


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    rng = np.random.default_rng(2024)
    lefts = rng.uniform(0.0, 1000.0, N_INTERVALS)
    rights = lefts + rng.exponential(1.0, N_INTERVALS)
    path = tmp_path_factory.mktemp("calls") / "intervals.npz"
    snapshot_intervals(path, lefts, rights)
    return restore_service(path)


@pytest.fixture(scope="module")
def pointloc_service(tmp_path_factory):
    sites = np.random.default_rng(2024).random((N_SITES, 2))
    path = tmp_path_factory.mktemp("calls") / "pointloc.npz"
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


def count_env_reads(fn) -> int:
    """``os.environ`` lookups ``fn()`` makes (``get``, ``in`` and ``[]``
    all go through ``_Environ.__getitem__``)."""
    return count_calls(fn, events=("call",), code=type(os.environ).__getitem__.__code__)


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
    # child test, the advance and the level's charge
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
    assert count_env_reads(lambda: os.environ.get("REPRO_UNRELATED")) == 1
    assert count_env_reads(lambda: "REPRO_UNRELATED" in os.environ) == 1


@pytest.mark.parametrize("m", [1, 64])
def test_interval_batch_reads_no_environment(service, m, monkeypatch):
    # tracing off: an engine-carrying batch must not look at REPRO_TRACE
    # (or any other variable) per call
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    q = _rows(m, m)
    engine = service.make_engine(m, paranoid=False)
    service.run_batch(q, engine=service.make_engine(m, paranoid=False))
    assert count_env_reads(lambda: service.run_batch(q, engine=engine)) == 0


def test_pointloc_batch_reads_no_environment(pointloc_env, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    svc = pointloc_env["service"]
    q = pointloc_env["queries"]
    engine = svc.make_engine(len(q), paranoid=False)
    svc.run_batch(q, engine=svc.make_engine(len(q), paranoid=False))
    assert count_env_reads(lambda: svc.run_batch(q, engine=engine)) == 0
