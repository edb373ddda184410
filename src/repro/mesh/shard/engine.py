"""Hierarchical charging engine over a :class:`MultiChipMesh`.

:class:`ShardedMeshEngine` is a :class:`~repro.mesh.engine.MeshEngine`
whose *cost model* knows about chip boundaries.  Data execution is
untouched — every primitive computes byte-identical outputs through the
same kernels — but the charging hooks decompose each flat
``constant * side`` charge the way the hardware would run it:

* a region inside **one chiplet** charges exactly as the flat engine
  does (same steps, same label, same volume) — at ``k_chip == 1`` every
  region is such a region, so charges, trace spans and ``clock.time``
  are byte-identical to the flat engine;
* a region **spanning chiplets** becomes a ``clock.parallel()`` section
  with one branch per covered chiplet (each charging ``constant *
  intersection.side`` inside a ``chip:i,j`` trace span — the chiplets
  run their intra-chip phases concurrently), followed by one
  ``xchip:<label>`` charge for the inter-chip exchange the primitive
  needs to act globally, costed by
  :meth:`MultiChipMesh.exchange_steps`.

Because the decomposition rides the ordinary ``clock.parallel()``
machinery, the tracer's parallel-fold bookkeeping keeps span sums equal
to ``clock.time`` exactly, and :class:`~repro.mesh.profile.CostProfile`
picks the ``xchip:*`` labels up with no changes — ``fraction("xchip:")``
is the off-chip share of a run.

The outputs of a chip-spanning ``sort_by`` / ``argsort`` / ``route`` /
``transfer`` cross the off-chip links, so that is where the off-chip
fault kinds fire: an installed
:class:`~repro.mesh.faults.FaultInjector` is wrapped in
:class:`_OffChipLinks`, which the primitives' ordinary fault hooks call.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.engine import MeshEngine
from repro.mesh.faults import invariant
from repro.mesh.shard.topology import MultiChipMesh, XChipCost
from repro.mesh.topology import RegionSpec
from repro.mesh.trace import traced

__all__ = ["ShardedMeshEngine"]


class ShardedMeshEngine(MeshEngine):
    """A mesh engine charging per-chiplet phases plus off-chip exchanges."""

    def __init__(self, chips: MultiChipMesh, **kwargs) -> None:
        super().__init__(chips.shape, **kwargs)
        self.chips = chips
        #: whether the last charged primitive spanned chiplets (its
        #: outputs cross off-chip links)
        self._spanning = False

    @property
    def faults(self):
        """The installed injector, wrapped so off-chip faults fire too."""
        return self._links

    @faults.setter
    def faults(self, injector) -> None:
        self._links = None if injector is None else _OffChipLinks(self, injector)

    @classmethod
    def for_problem(  # type: ignore[override]
        cls,
        n: int,
        chip_rows: int = 1,
        chip_cols: int | None = None,
        xchip: XChipCost | None = None,
        **kwargs,
    ) -> "ShardedMeshEngine":
        """Smallest chip grid of the given shape holding an ``n``-record problem."""
        return cls(
            MultiChipMesh.for_problem(
                n, chip_rows=chip_rows, chip_cols=chip_cols, xchip=xchip
            ),
            **kwargs,
        )

    # -- hierarchical charging ---------------------------------------------

    def charge_primitive(
        self, spec: RegionSpec, constant: float, label: str, volume: int = 0
    ) -> None:
        cover = self.chips.chips_covering(spec)
        if len(cover) == 1:
            # one chiplet covers the region: the flat charge IS the
            # hardware behavior (this is every charge at k_chip == 1)
            self._spanning = False
            super().charge_primitive(spec, constant, label, volume=volume)
            return
        self._spanning = True
        size = spec.size
        with self.clock.parallel() as section:
            for ci, cj, part in cover:
                with section.branch():
                    with traced(self.clock, f"chip:{ci},{cj}"):
                        self.clock.charge(
                            constant * part.side,
                            label,
                            volume=(volume * part.size) // size,
                        )
        hops = self.chips.chip_span(spec)
        self.clock.charge(
            self.chips.exchange_steps(hops, volume),
            f"xchip:{label}",
            volume=volume,
        )

    def charge_phase(
        self, side: int, constant: float, label: str, volume: int = 0,
        extra: float = 0.0,
    ) -> float:
        # phases are root-anchored for covering purposes (clamped to the
        # mesh so non-square chip grids stay in-bounds); a phase whose
        # submeshes fit one chiplet charges flat, a spanning phase
        # decomposes like a spanning primitive
        spec = RegionSpec(
            0, 0, min(side, self.shape.rows), min(side, self.shape.cols)
        )
        cover = self.chips.chips_covering(spec)
        if len(cover) == 1:
            return super().charge_phase(
                side, constant, label, volume=volume, extra=extra
            )
        size = spec.size
        with self.clock.parallel() as section:
            for ci, cj, part in cover:
                with section.branch():
                    with traced(self.clock, f"chip:{ci},{cj}"):
                        self.clock.charge(
                            constant * part.side + extra,
                            label,
                            volume=(volume * part.size) // size,
                        )
        self.clock.charge(
            self.chips.exchange_steps(self.chips.chip_span(spec), volume),
            f"xchip:{label}",
            volume=volume,
        )
        return constant * side + extra

    def charge_transfer(
        self, src: RegionSpec, dst: RegionSpec, label: str, volume: int = 0
    ) -> None:
        hops = self.chips.chip_span(src, dst)
        if hops == 0:
            # source and destination share a chiplet: on-chip transfer
            self._spanning = False
            super().charge_transfer(src, dst, label, volume=volume)
            return
        self._spanning = True
        # drain to the chip boundary, cross off-chip, fill from the boundary
        cost = self.clock.cost.transfer
        with self.clock.parallel() as section:
            for spec in (src, dst):
                with section.branch():
                    self.clock.charge(cost * spec.side, label, volume=volume)
        self.clock.charge(
            self.chips.exchange_steps(hops, volume),
            f"xchip:{label}",
            volume=volume,
        )


class _OffChipLinks:
    """The fault hooks a :class:`ShardedMeshEngine`'s primitives call.

    Each hook first runs the injector's own hook, so the flat fault kinds
    fire exactly as on the flat engine.  If the primitive that just
    charged spanned chiplets, its outputs then cross the off-chip links
    at site ``xchip:<label>``, where ``xchip_drop`` / ``xchip_corrupt``
    fire; a paranoid engine checks at that merge point that every array
    kept its record count and its bytes (the host holds both sides of
    the exchange).  Every other attribute (``injected``, ``log()``, ...)
    is the injector's.
    """

    def __init__(self, engine: ShardedMeshEngine, injector) -> None:
        self._engine = engine
        self.injector = injector

    def __getattr__(self, name):
        return getattr(self.injector, name)

    def on_sort_keys(self, keys: np.ndarray, site: str) -> np.ndarray:
        (keys,) = self._cross((self.injector.on_sort_keys(keys, site),), site)
        return keys

    def on_sort_order(self, order: np.ndarray, site: str) -> np.ndarray:
        (order,) = self._cross((self.injector.on_sort_order(order, site),), site)
        return order

    def on_route_payload(self, outs: list, targets: np.ndarray, site: str) -> None:
        self.injector.on_route_payload(outs, targets, site)
        outs[:] = self._cross(tuple(outs), site)

    def on_transfer(self, outs: tuple, site: str) -> tuple:
        return self._cross(self.injector.on_transfer(outs, site), site)

    def _cross(self, sent: tuple, label: str) -> tuple:
        engine = self._engine
        if not engine._spanning:
            return sent
        site = f"xchip:{label}"
        arrived = self.injector.on_xchip_exchange(sent, site)
        if engine.paranoid:
            for i, (got, want) in enumerate(zip(arrived, sent)):
                if got.shape[0] != want.shape[0]:
                    raise invariant(
                        "xchip:merge",
                        f"array {i} arrived with {got.shape[0]} of "
                        f"{want.shape[0]} records at {site}",
                        clock=engine.clock,
                    )
                if got.tobytes() != want.tobytes():
                    raise invariant(
                        "xchip:merge",
                        f"array {i} content changed crossing off-chip "
                        f"links at {site}",
                        clock=engine.clock,
                    )
        return arrived
