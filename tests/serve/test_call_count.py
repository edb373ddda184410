"""A served interval batch makes a bounded number of Python calls.

Wall-clock gates cannot tell a slower host from a slower program, but
the number of Python calls a batch makes does not depend on the host:
it counts the fixed per-batch host work (function calls, numpy calls)
that dominates small batches.  ``sys.setprofile`` counts every Python
and C call one ``IntervalCountService.run_batch`` makes on a restored
8192-interval structure, after warm-up (packed records and
Constrained-Multisearch constants are cached on first use).

The ceiling sits about 10% above the current count (2696 at 1 and at 64
rows, Python 3.11 with numpy 2.4): interpreter and numpy versions that
add or remove Python-level wrappers move the count by a few percent.
"""

import sys

import numpy as np
import pytest

from repro.serve import restore_service, snapshot_intervals

N_INTERVALS = 8192
CALL_CEILING = 3000


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    rng = np.random.default_rng(2024)
    lefts = rng.uniform(0.0, 1000.0, N_INTERVALS)
    rights = lefts + rng.exponential(1.0, N_INTERVALS)
    path = tmp_path_factory.mktemp("calls") / "intervals.npz"
    snapshot_intervals(path, lefts, rights)
    return restore_service(path)


def count_calls(fn) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("m", [1, 64])
def test_run_batch_call_count(service, m, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    rng = np.random.default_rng(m)
    a = rng.uniform(0.0, 1000.0, m)
    q = np.stack([a, a + rng.exponential(2.0, m)], axis=1)

    def batch():
        return service.run_batch(q, engine=service.make_engine(m, paranoid=False))

    for _ in range(2):
        batch()
    calls = count_calls(batch)
    assert calls <= CALL_CEILING, f"{calls} calls for one {m}-row batch"
