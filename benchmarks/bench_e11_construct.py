"""E11 — construction cost: modelled mesh steps for building the structures.

The paper builds its search structures on the mesh out of the same
primitives the queries use; Theorem 8's preprocessing is O(sqrt(n)).
This sweep charges the Kirkpatrick and Dobkin–Kirkpatrick construction
pipelines to a :class:`repro.mesh.construct.Construction` and records
total modelled steps across a 64x problem-size range — the committed
blob (``BENCH_e11_construct.json``) gates that ``steps / sqrt(n)`` stays
in a bounded band, i.e. construction really is O(sqrt(n)) in the model.

Each pipeline is the full build: hierarchy plus the flattened search
structure the applications query (``kirkpatrick_structure`` /
``dk_support_structure``).  ``run_once`` returns the charged step count
as ``mesh_steps``; the builder outputs themselves are exercised but not
returned.
"""

from repro.bench.workloads import sphere_points
from repro.mesh.construct import Construction
from repro.util.rng import make_rng

__all__ = ["run_once"]


def _kirkpatrick(n: int, seed: int, construct: Construction) -> None:
    from repro.geometry.kirkpatrick import build_kirkpatrick, kirkpatrick_structure

    rng = make_rng(100 + seed)
    pts = rng.uniform(0.0, 1.0, (n, 2))
    hier = build_kirkpatrick(pts, seed=seed, construct=construct)
    kirkpatrick_structure(hier, construct=construct)


def _dk3d(n: int, seed: int, construct: Construction) -> None:
    from repro.geometry.dk3d import build_dk_hierarchy, dk_support_structure

    pts = sphere_points(n, seed=200 + seed)
    hier = build_dk_hierarchy(pts, seed=seed, construct=construct)
    dk_support_structure(hier, construct=construct)


_PIPELINES = {"kirkpatrick": _kirkpatrick, "dk3d": _dk3d}


def run_once(pipeline: str, n: int, seed: int = 1) -> dict:
    """Build one pipeline's structures; return total modelled mesh steps."""
    construct = Construction(n + 3)  # +3: kirkpatrick's bounding triangle
    _PIPELINES[pipeline](int(n), int(seed), construct)
    steps = float(construct.steps)
    if not steps > 0:
        raise AssertionError(f"{pipeline} n={n} charged no construction steps")
    return {"mesh_steps": steps}
