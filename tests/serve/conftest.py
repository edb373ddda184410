"""Shared fixtures for the serving-layer suite.

Structures are built and snapshotted once per session (construction is
the expensive part); every test restores or serves from these.
"""

import numpy as np
import pytest

from repro.serve import restore_service, snapshot_intervals, snapshot_linepoly, snapshot_pointloc

RNG_SEED = 1331


@pytest.fixture(scope="session")
def pointloc_env(tmp_path_factory):
    rng = np.random.default_rng(RNG_SEED)
    sites = rng.random((48, 2))
    path = tmp_path_factory.mktemp("serve") / "pointloc.snap"
    snapshot = snapshot_pointloc(path, sites, seed=7)
    queries = rng.random((37, 2))
    return {
        "kind": "pointloc",
        "path": path,
        "snapshot": snapshot,
        "service": restore_service(path),
        "sites": sites,
        "queries": queries,
    }


@pytest.fixture(scope="session")
def linepoly_env(tmp_path_factory):
    rng = np.random.default_rng(RNG_SEED + 1)
    points = rng.random((40, 3))
    path = tmp_path_factory.mktemp("serve") / "linepoly.snap"
    snapshot = snapshot_linepoly(path, points, seed=7)
    p0 = rng.random((11, 3)) * 4.0 - 1.5
    direction = rng.standard_normal((11, 3))
    return {
        "kind": "linepoly",
        "path": path,
        "snapshot": snapshot,
        "service": restore_service(path),
        "points": points,
        "queries": np.concatenate([p0, direction], axis=1),
    }


@pytest.fixture(scope="session")
def interval_env(tmp_path_factory):
    rng = np.random.default_rng(RNG_SEED + 2)
    lefts = rng.random(80)
    rights = lefts + rng.random(80) * 0.3
    path = tmp_path_factory.mktemp("serve") / "interval.snap"
    snapshot = snapshot_intervals(path, lefts, rights, k=2)
    a = rng.random(23)
    return {
        "kind": "interval",
        "path": path,
        "snapshot": snapshot,
        "service": restore_service(path),
        "lefts": lefts,
        "rights": rights,
        "queries": np.stack([a, a + 0.15], axis=1),
    }


@pytest.fixture(scope="session")
def all_envs(pointloc_env, linepoly_env, interval_env):
    return {
        "pointloc": pointloc_env,
        "linepoly": linepoly_env,
        "interval": interval_env,
    }
