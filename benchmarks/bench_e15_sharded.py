"""E15 — the paper's multisearches on a sharded multi-chip mesh.

A :class:`repro.mesh.shard.MultiChipMesh` splits one global mesh into a
``k_chip x k_chip`` grid of chiplets: the flat mesh with its
chip-boundary links made slower.  Every primitive or phase pays the flat
engine's charge, and one whose region (or worst tile) spans chips also
pays an off-chip exchange whose cost grows with the chip-grid span (hop
latency) and with the records it moves over link bandwidth
(serialization).  So the sweep measures what chiplets cost.

The sweep holds the global mesh (side 64) and each problem fixed and
varies only the decomposition and the link bandwidth, for three drivers:

* ``hierdag`` — Algorithm 1 on E1's height-12 binary search DAG
  (``bench_e1_hierdag.sweep_setup(12, "hierdag")``, 1024 queries);
* ``constrained`` — Constrained-Multisearch on E2's height-12 tree at
  maximum congestion (``bench_e2_constrained.sweep_setup(12, 1.0)``);
* ``intervals`` — E8-style interval counting (two alpha rank
  multisearches), 1500 intervals and 2048 queries.

``k_chip=1`` is the unsharded engine by construction (byte-identical
charges), so each driver's ``k_chip=1`` rows anchor its curves.
``sweep_run`` returns the total charged steps as ``mesh_steps``.
"""

import numpy as np

from bench_e1_hierdag import sweep_setup as e1_setup
from bench_e2_constrained import sweep_setup as e2_setup
from repro.apps.interval_search import count_intersections_mesh, setup_interval_search
from repro.bench.workloads import random_intervals
from repro.core.constrained import constrained_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import QuerySet
from repro.mesh.shard import MultiChipMesh, ShardedMeshEngine, XChipCost
from repro.util.rng import make_rng

__all__ = ["DRIVERS", "drive", "sweep_setup", "sweep_run"]

#: global mesh side, fixed across the sweep so only the decomposition
#: varies; every swept k_chip must divide it
SIDE = 64
DRIVERS = ("constrained", "hierdag", "intervals")


def sweep_setup(driver: str, k_chip: int, bandwidth: float) -> dict:
    """Untimed problem construction for one driver."""
    if driver == "hierdag":
        return {"driver": driver, **e1_setup(12, "hierdag")}
    if driver == "constrained":
        return {"driver": driver, **e2_setup(12, 1.0)}
    if driver == "intervals":
        lefts, rights = random_intervals(1500, seed=1500, domain=1000.0)
        rng = make_rng(7)
        a = rng.uniform(0.0, 1000.0, 2048)
        b = a + rng.uniform(0.1, 20.0, 2048)
        return {
            "driver": driver,
            "setup": setup_interval_search(lefts, rights),
            "a": a,
            "b": b,
        }
    raise ValueError(f"unknown driver {driver!r} (know {DRIVERS})")


def drive(ctx: dict, engine) -> tuple[float, np.ndarray]:
    """Run ``ctx``'s driver on ``engine``: ``(charged steps, answers)``."""
    driver = ctx["driver"]
    if driver == "hierdag":
        qs = QuerySet.start(ctx["keys"], 0)
        res = hierdag_multisearch(engine, ctx["st"], qs, mu=2.0, c=2)
        return float(engine.clock.time), res.final
    if driver == "constrained":
        qs = QuerySet.start(ctx["keys"], ctx["starts"])
        constrained_multisearch(engine, ctx["st"], qs, ctx["sp"])
        return float(engine.clock.time), qs.current
    counts, _ = count_intersections_mesh(ctx["setup"], ctx["a"], ctx["b"], engine=engine)
    return float(engine.clock.time), counts


def sweep_run(ctx: dict, driver: str, k_chip: int, bandwidth: float) -> dict:
    """Timed part: the sharded engine plus the driver; returns total steps."""
    k_chip = int(k_chip)
    if SIDE % k_chip:
        raise ValueError(f"k_chip={k_chip} must divide the global side {SIDE}")
    engine = ShardedMeshEngine(
        MultiChipMesh.square(k_chip, SIDE // k_chip, XChipCost(bandwidth=float(bandwidth)))
    )
    steps, _ = drive(ctx, engine)
    if not steps > 0:
        raise AssertionError(f"{driver} at k_chip={k_chip} charged no steps")
    return {"mesh_steps": steps}
