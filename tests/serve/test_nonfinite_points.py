"""A non-finite point row answers ``-1`` without failing its batch.

An ``inf`` coordinate makes the child-triangle orientations ``inf - inf``
(NaN), which is how such a point lies in no triangle.  The kernel must not
warn about it: under ``-W error`` a warning would raise and fail every row
batched with the bad one.
"""

import asyncio
import warnings

import numpy as np

from repro.geometry.kirkpatrick import build_kirkpatrick
from repro.serve import BatchingServer

ROWS = np.array([[np.inf, 0.5], [0.5, 0.5]])


def _expected(pointloc_env):
    hier = build_kirkpatrick(pointloc_env["sites"], seed=7)
    want = hier.locate_brute(ROWS[1:])[0]
    assert want >= 0
    return want


def test_run_batch_answers_around_a_non_finite_row(pointloc_env):
    want = _expected(pointloc_env)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, _ = pointloc_env["service"].run_batch(ROWS)
    assert [int(r) for r in results] == [-1, want]


def test_batching_server_answers_around_a_non_finite_row(pointloc_env):
    want = _expected(pointloc_env)

    async def serve():
        server = BatchingServer(pointloc_env["service"], batch_size=2, deadline_s=0.05)
        results = await server.submit_many(ROWS)
        await server.drain()
        return results, server

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, server = asyncio.run(serve())
    assert [int(r) for r in results] == [-1, want]
    assert server.stats["batches"] == 1
