"""Charging engine over a :class:`MultiChipMesh`.

:class:`ShardedMeshEngine` is a :class:`~repro.mesh.engine.MeshEngine`
whose *cost model* knows about chip boundaries.  Data execution is
untouched — every primitive computes byte-identical outputs through the
same kernels — and every charge follows one rule: the flat charge
(``super()``'s), plus one ``xchip:<label>`` exchange of
:meth:`MultiChipMesh.exchange_steps` when the work spans chiplets.  A
primitive spans chiplets when its region does, a transfer when its
source and destination together do, and a phase of a multisearch core
pays the exchange of the worst tile of the ``grid x grid`` tiling of
the root its caller derives from its plan
(:meth:`MultiChipMesh.tile_span`, worked out once per grid).

The flat charge stays whole because a chiplet mesh is the flat global
grid with its chip-boundary links made slower (chiplet-network-sim's
``MultiChipMesh`` wires each boundary node straight to its neighbour
on the adjacent chip): no schedule runs faster on it than on the flat
mesh.  The exchange does not charge on-chip transit a second time: the
flat charge is already a schedule that crosses the whole region, and
only the boundary links are slower.

At ``k_chip == 1`` nothing spans, so charges, trace spans and
``clock.time`` are byte-identical to the flat engine.
``CostProfile.fraction("xchip:")`` is the off-chip share of a run.

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

__all__ = ["ShardedMeshEngine"]


class ShardedMeshEngine(MeshEngine):
    """A mesh engine charging flat steps plus off-chip exchanges."""

    def __init__(self, chips: MultiChipMesh, **kwargs) -> None:
        super().__init__(chips.shape, **kwargs)
        self.chips = chips
        #: whether the last charge spanned chiplets (a primitive's
        #: outputs then cross off-chip links)
        self._spanning = False
        #: tiling grid -> chip span of its worst tile
        self._tile_spans: dict[int, int] = {}

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

    # -- charging: the flat charge plus the off-chip exchange ----------------

    def charge_primitive(
        self, spec: RegionSpec, constant: float, label: str, volume: int = 0
    ) -> None:
        super().charge_primitive(spec, constant, label, volume=volume)
        self._exchange(self.chips.chip_span(spec), label, volume)

    def charge_phase(
        self, side: int, constant: float, label: str, volume: int = 0,
        extra: float = 0.0, grid: int = 1,
    ) -> float:
        steps = super().charge_phase(side, constant, label, volume=volume, extra=extra)
        hops = self._tile_spans.get(grid)
        if hops is None:
            hops = self._tile_spans[grid] = self.chips.tile_span(grid)
        self._exchange(hops, label, volume)
        return steps

    def charge_transfer(
        self, src: RegionSpec, dst: RegionSpec, label: str, volume: int = 0
    ) -> None:
        super().charge_transfer(src, dst, label, volume=volume)
        self._exchange(self.chips.chip_span(src, dst), label, volume)

    def _exchange(self, hops: int, label: str, volume: int) -> None:
        """Charge the off-chip exchange that follows a flat charge spanning
        ``hops`` chip-grid hops (none when the work stays on one chiplet)."""
        self._spanning = hops > 0
        if self._spanning:
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
