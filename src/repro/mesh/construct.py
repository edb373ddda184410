"""Modelled mesh cost for structure *construction*.

The paper's applications (Theorem 8, Section 6) build their search
structures — Kirkpatrick subdivision hierarchies, Dobkin–Kirkpatrick hull
hierarchies, interval trees — on the mesh itself, out of the same standard
primitives the queries use: sort the input, scan to rank and pack, route
records to their level, select an independent set, recurse on the smaller
level.  Our builders compute those structures host-side (numpy/scipy), so
until now their trace spans carried wall time only.

:class:`Construction` closes that gap.  It wraps a
:class:`~repro.mesh.engine.MeshEngine` sized for the problem and exposes
*counted* construction primitives — ``sort``, ``argsort``, ``scan``,
``route``, ``broadcast``, ``reduce``, ``local`` and ``independent_set``
(which drives :func:`repro.geometry.independent.greedy_low_degree_independent_set`)
— each charged to the engine's :class:`~repro.mesh.clock.StepClock` at the
textbook cost ``constant * side``.  Per call, ``n=`` selects a square
submesh just large enough for that phase's records, so the per-round
charges of a geometrically shrinking hierarchy sum to ``O(sqrt(n))``
exactly as the paper's construction bound claims (experiment E11).

Charge labels are namespaced ``construct:*`` (``construct:sort``,
``construct:scan``, ``construct:route``, ``construct:broadcast``,
``construct:reduce``, ``construct:local``, ``construct:independent-set``)
so profiles, trace spans and the chaos harness can distinguish
construction work from query work.  Because the primitives run through the
real engine, they inherit the whole cost-discipline stack for free:
``REPRO_TRACE`` span attribution and its per-label profiles,
paranoid-mode invariants (including the stable-order check on tied keys)
and fault injection at the same boundaries the queries are attacked at.

Builder contract: a builder takes ``construct=None`` and creates its own
:class:`Construction` when none is given.  All modelled charges are pure
functions of the input sizes — the builder's *outputs* are byte-identical
with or without a construction attached (gated by
``tests/geometry/test_construct.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mesh.engine import MeshEngine, Region
from repro.mesh.trace import traced

__all__ = ["Construction", "CONSTRUCT_LABELS"]

#: every charge label the construction primitives emit (chaos scenarios
#: target these sites; EXPERIMENTS.md documents them)
CONSTRUCT_LABELS = (
    "construct:sort",
    "construct:scan",
    "construct:route",
    "construct:broadcast",
    "construct:reduce",
    "construct:local",
    "construct:independent-set",
)


class Construction:
    """Counted construction primitives charged to one step clock.

    ``Construction(n)`` sizes a square engine for an ``n``-record problem.
    Each primitive accepts ``n=`` to run on a submesh just large enough
    for that many records (side ``ceil(sqrt(n))``, clipped to the engine),
    matching the paper's convention that a phase touching ``m`` records
    pays ``O(sqrt(m))``, not ``O(sqrt(n))``.
    """

    def __init__(
        self,
        n: int,
        engine: MeshEngine | None = None,
        paranoid: bool | None = None,
    ) -> None:
        if engine is None:
            engine = MeshEngine.for_problem(max(int(n), 1), paranoid=paranoid)
        self.engine = engine
        self.clock = engine.clock

    @property
    def steps(self) -> float:
        """Total modelled construction steps charged so far."""
        return self.clock.time

    # -- spans ---------------------------------------------------------------

    def span(self, name: str):
        """Span context on this construction's clock (see :func:`traced`)."""
        return traced(self.clock, name)

    # -- region sizing --------------------------------------------------------

    def region(self, n: int | None = None) -> Region:
        """Square submesh for an ``n``-record phase (whole mesh if None)."""
        if n is None:
            return self.engine.root
        m = max(int(n), 1)
        side = min(self.engine.side, math.isqrt(m - 1) + 1)
        return self.engine.root.subregion(0, 0, side, side)

    # -- counted primitives ---------------------------------------------------

    def sort(
        self, keys, *arrays, n: int | None = None, label: str = "construct:sort"
    ) -> tuple[np.ndarray, ...]:
        """Sort records by key (optimal-sort cost on the phase submesh)."""
        return self.region(n).sort_by(keys, *arrays, label=label)

    def argsort(
        self, keys, n: int | None = None, label: str = "construct:sort"
    ) -> np.ndarray:
        """Stable sort permutation (same cost as :meth:`sort`)."""
        return self.region(n).argsort(keys, label=label)

    def scan(
        self,
        values,
        op: str = "add",
        inclusive: bool = True,
        n: int | None = None,
        label: str = "construct:scan",
    ) -> np.ndarray:
        """Prefix combine in processor order (rank/pack phases)."""
        return self.region(n).scan(values, op=op, inclusive=inclusive, label=label)

    def route(
        self,
        dest,
        *arrays,
        size: int | None = None,
        n: int | None = None,
        label: str = "construct:route",
    ) -> tuple[np.ndarray, ...]:
        """Partial-permutation routing (placing records at their level).

        Default output size covers the largest destination (records pack
        ``capacity`` per processor, so phases with more records than the
        submesh has processors — e.g. ~2n triangles on an n-mesh — fit).
        """
        r = self.region(n)
        dest = np.asarray(dest, dtype=np.int64)
        if size is None:
            top = int(dest.max()) + 1 if dest.size else 0
            size = max(r.size, top)
        return r.route(dest, *arrays, size=size, label=label)

    def broadcast(self, value, n: int | None = None, label: str = "construct:broadcast"):
        """Deliver one word to every processor of the phase submesh."""
        return self.region(n).broadcast(value, label=label)

    def reduce(
        self, values, op: str = "add", n: int | None = None,
        label: str = "construct:reduce",
    ):
        """Global reduction visible everywhere (extreme-point selection)."""
        return self.region(n).reduce(values, op=op, label=label)

    def local(self, steps: int = 1, label: str = "construct:local") -> None:
        """Charge ``steps`` SIMD local steps (side-independent)."""
        self.engine.root.charge_local(steps, label=label)

    def independent_set(
        self,
        neighbors: dict[int, set[int]],
        candidates: set[int],
        max_degree: int = 8,
        seed=0,
        n: int | None = None,
        label: str = "construct:independent-set",
    ) -> list[int]:
        """Bounded-degree independent set, charged at its mesh cost.

        The mesh algorithm ranks candidates by degree (one sort — heavy
        with ties, which is exactly what the stable-order invariant
        guards) and resolves conflicts with a constant number of scans;
        the host-side greedy selection itself is unchanged, ``seed``
        passes straight through so the chosen set is byte-identical to an
        uncounted call.
        """
        count = len(neighbors) if n is None else n
        r = self.region(count)
        if neighbors:
            degrees = np.array(
                [len(neighbors[v]) for v in sorted(neighbors)], dtype=np.int64
            )
            r.argsort(degrees, label=label)
            r.scan(np.ones(degrees.shape[0], dtype=np.int64), label=label)
        from repro.geometry.independent import greedy_low_degree_independent_set

        return greedy_low_degree_independent_set(
            neighbors, candidates, max_degree=max_degree, seed=seed
        )
