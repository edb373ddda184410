"""Sharded record storage: one store per chiplet, primitives decomposed.

A :class:`ShardedRecordSet` partitions ``n`` records (named column
arrays) across one :class:`HostShard` per chiplet of a
:class:`~repro.mesh.shard.topology.MultiChipMesh`, in contiguous
row-index slices (chip ``0``'s shard holds the first cut, row-major chip
order) — the sharded analogue of the flat engine's "record *i* lives on
processor *i*" convention.  A shard is plain per-shard numpy arrays in
the host process: the sharded mesh is a cost model, and its charges do
not depend on where a shard's columns live.

Primitives decompose into **intra-chip phases** (every shard works
concurrently — charged per chiplet under a ``clock.parallel()``
section) plus **inter-chip exchanges** (charged under ``xchip:*``
labels via :meth:`MultiChipMesh.exchange_steps`):

* :meth:`sort_by` — per-shard stable local sort, then a merge exchange:
  because shards are contiguous index slices and the local sorts are
  stable, a stable argsort over the concatenated per-shard runs *is*
  the global stable order, so the sharded sort is byte-identical to
  sorting the flat arrays;
* :meth:`scan` — per-shard local scan plus an exchange of one partial
  per shard (exact for integer operands; float scans re-associate
  across shard boundaries, which IEEE addition does not forgive);
* :meth:`route` — per-shard scatter through a global destination
  permutation, exchanging exactly the records that cross a chip
  boundary;
* :meth:`gather` — materialize columns on the host (the exchange
  network drains every shard).

Every inter-chip exchange passes through the installed
:class:`~repro.mesh.faults.FaultInjector`'s off-chip hook
(``xchip_drop`` / ``xchip_corrupt``) *before* the merge-point paranoid
checks, which assert record-count conservation, key multiset
conservation, and merged sortedness — so a lossy or noisy off-chip link
is caught at the earliest boundary, exactly like the flat engine's
primitive faults.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mesh.faults import invariant
from repro.mesh.shard.engine import ShardedMeshEngine
from repro.mesh.shard.topology import MultiChipMesh
from repro.mesh.topology import _cuts
from repro.mesh.trace import traced

__all__ = ["HostShard", "ShardedRecordSet"]

_SCAN_OPS = {"add": np.add, "max": np.maximum, "min": np.minimum}


def _check_columns(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    cols = {str(k): np.asarray(v) for k, v in columns.items()}
    if not cols:
        raise ValueError("need at least one column")
    lengths = {k: int(v.shape[0]) for k, v in cols.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns must have equal length, got {lengths}")
    return cols


class HostShard:
    """A shard held as plain numpy arrays in the host process."""

    def __init__(self) -> None:
        self._columns: dict[str, np.ndarray] = {}
        self._count = 0

    def put(self, columns: dict[str, np.ndarray]) -> None:
        cols = _check_columns(columns)
        self._columns = {k: np.array(v) for k, v in cols.items()}
        self._count = int(next(iter(cols.values())).shape[0])

    def get(self, names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        picked = self._columns if names is None else {n: self._columns[n] for n in names}
        return {k: np.array(v) for k, v in picked.items()}

    def count(self) -> int:
        return self._count

    def stable_order(self, key: str) -> np.ndarray:
        return np.argsort(self._columns[key], kind="stable")

    def take(self, order: np.ndarray) -> None:
        order = np.asarray(order)
        self._columns = {k: v[order] for k, v in self._columns.items()}
        self._count = int(order.shape[0])

    def local_scan(self, key: str, op: str = "add") -> np.ndarray:
        return _SCAN_OPS[op].accumulate(self._columns[key])


# -- the sharded record set ---------------------------------------------------


class ShardedRecordSet:
    """Records partitioned across one store per chiplet.

    Parameters
    ----------
    columns:
        Named equal-length record arrays; row ``i`` is record ``i``.
    mesh:
        The multi-chip topology; one shard per chiplet, record cuts as
        equal as possible (``n < num_chips`` leaves trailing shards
        empty).
    engine:
        Optional :class:`ShardedMeshEngine` over ``mesh``; when given,
        every operation charges its clock (intra-chip phases in
        parallel sections, exchanges under ``xchip:*``), its paranoid
        flag arms the per-shard and merge-point checks, and its
        installed fault injector's off-chip hook fires on every
        exchange.  Without an engine this is a pure storage layer.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        mesh: MultiChipMesh,
        engine: ShardedMeshEngine | None = None,
    ) -> None:
        cols = _check_columns(columns)
        if engine is not None and engine.chips != mesh:
            raise ValueError(
                f"engine topology {engine.chips} does not match mesh {mesh}"
            )
        self.mesh = mesh
        self.engine = engine
        self.n = int(next(iter(cols.values())).shape[0])
        self.column_names = tuple(cols)
        self._chip_ids = [
            (ci, cj) for ci in range(mesh.chip_rows) for cj in range(mesh.chip_cols)
        ]
        cuts = _cuts(self.n, mesh.num_chips) if self.n >= 1 else None
        self.shards: list[HostShard] = []
        for s in range(mesh.num_chips):
            store = HostShard()
            lo, hi = (int(cuts[s]), int(cuts[s + 1])) if cuts is not None else (0, 0)
            store.put({k: v[lo:hi] for k, v in cols.items()})
            self.shards.append(store)

    # -- lifecycle (shards are host arrays: nothing to release) -----------

    def __enter__(self) -> "ShardedRecordSet":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __len__(self) -> int:
        return self.n

    @property
    def num_shards(self) -> int:
        return self.mesh.num_chips

    def shard_counts(self) -> list[int]:
        return [store.count() for store in self.shards]

    # -- charging helpers --------------------------------------------------

    def _charge_intra(self, constant: float, label: str) -> None:
        """Charge one intra-chip phase: every chiplet works concurrently."""
        eng = self.engine
        if eng is None:
            return
        if self.num_shards == 1:
            eng.clock.charge(constant * self.mesh.k_node, label, volume=self.n)
            return
        counts = self.shard_counts()
        with eng.clock.parallel() as section:
            for (ci, cj), cnt in zip(self._chip_ids, counts):
                with section.branch():
                    with traced(eng.clock, f"chip:{ci},{cj}"):
                        eng.clock.charge(
                            constant * self.mesh.k_node, label, volume=cnt
                        )

    def _charge_exchange(self, label: str, volume: int, hops: int | None = None) -> None:
        """Charge one inter-chip exchange under ``xchip:<label>``."""
        eng = self.engine
        if eng is None or self.num_shards == 1:
            return
        if hops is None:
            hops = (self.mesh.chip_rows - 1) + (self.mesh.chip_cols - 1)
        eng.clock.charge(
            self.mesh.exchange_steps(hops, volume), f"xchip:{label}", volume=volume
        )

    # -- exchange boundary (faults + merge-point paranoia) -----------------

    def _exchange(
        self,
        arrays: tuple[np.ndarray, ...],
        label: str,
        expect_n: int,
        key_index: int | None = None,
        sent_key: np.ndarray | None = None,
        sorted_key: bool = False,
        sent_arrays: tuple[np.ndarray, ...] | None = None,
        sent_multisets: tuple[np.ndarray, ...] | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Pass arrays across the off-chip links: faults, then paranoia.

        The merge-point checks (zero mesh steps, host reads only):
        record-count conservation across every exchanged array, key
        multiset conservation against the pre-exchange key, and — for
        sort merges — non-decreasing arrival order.
        """
        eng = self.engine
        if eng is None or self.num_shards == 1:
            return arrays
        site = f"xchip:{label}"
        if eng.faults is not None:
            arrays = eng.faults.on_xchip_exchange(arrays, site)
        if eng.paranoid:
            for i, a in enumerate(arrays):
                if int(a.shape[0]) != expect_n:
                    raise invariant(
                        "xchip:merge",
                        f"array {i} arrived with {int(a.shape[0])} of "
                        f"{expect_n} records at {site}",
                        clock=eng.clock,
                    )
            if sent_arrays is not None:
                # host materializations hold both sides of the exchange,
                # so full content integrity is checkable (and catches
                # corruption in any column, not just a declared key)
                for i, (a, s) in enumerate(zip(arrays, sent_arrays)):
                    if a.shape != s.shape or a.tobytes() != s.tobytes():
                        raise invariant(
                            "xchip:merge",
                            f"array {i} content changed crossing off-chip "
                            f"links at {site}",
                            clock=eng.clock,
                        )
            if sent_multisets is not None:
                # per-column multiset conservation: each chip checksums
                # what it sends, so the merge point can verify values
                # survived the links in any column, order aside (exact
                # value compare — NaN payloads would false-positive here)
                for i, (a, s) in enumerate(zip(arrays, sent_multisets)):
                    if not np.array_equal(
                        np.sort(np.asarray(a).ravel(), kind="stable"),
                        np.sort(np.asarray(s).ravel(), kind="stable"),
                    ):
                        raise invariant(
                            "xchip:merge",
                            f"array {i} value multiset changed crossing "
                            f"off-chip links at {site}",
                            clock=eng.clock,
                        )
            if key_index is not None and sent_key is not None:
                arrived = arrays[key_index]
                if not np.array_equal(
                    np.sort(np.asarray(arrived), kind="stable"),
                    np.sort(np.asarray(sent_key), kind="stable"),
                ):
                    raise invariant(
                        "xchip:merge",
                        f"key multiset changed crossing off-chip links at {site}",
                        clock=eng.clock,
                    )
                if sorted_key and arrived.shape[0] > 1 and np.any(
                    arrived[1:] < arrived[:-1]
                ):
                    raise invariant(
                        "xchip:merge",
                        f"merged keys not sorted after {site}",
                        clock=eng.clock,
                    )
        return arrays

    # -- host materialization ----------------------------------------------

    def gather(self, names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
        """Concatenate columns across shards (shard order = record order)."""
        names = tuple(names) if names is not None else self.column_names
        parts = [store.get(names) for store in self.shards]
        out = {
            k: np.concatenate([p[k] for p in parts])
            if self.num_shards > 1
            else parts[0][k]
            for k in names
        }
        self._charge_intra(self.engine.clock.cost.transfer if self.engine else 0.0, "shard:gather")
        sent = tuple(out[k] for k in names)
        arrays = self._exchange(
            sent, "gather", expect_n=self.n, sent_arrays=sent
        )
        self._charge_exchange("gather", volume=self.n)
        return dict(zip(names, arrays))

    # -- decomposed primitives ---------------------------------------------

    def sort_by(self, key: str, label: str = "sort") -> None:
        """Stable global sort by ``key``; byte-identical to a flat sort.

        Phase 1 (intra): each shard stable-sorts locally, concurrently.
        Phase 2 (exchange): per-shard sorted runs merge across the
        off-chip links — a stable argsort over the concatenated runs
        reproduces the global stable order exactly, because shards are
        contiguous index slices and the local sorts were stable.
        """
        eng = self.engine
        cost_sort = eng.clock.cost.sort if eng is not None else 0.0
        for store in self.shards:
            store.take(store.stable_order(key))
        self._charge_intra(cost_sort, f"shard:{label}")
        if eng is not None and eng.paranoid:
            for s, store in enumerate(self.shards):
                k = store.get((key,))[key]
                if k.shape[0] > 1 and np.any(k[1:] < k[:-1]):
                    raise invariant(
                        "shard:sorted",
                        f"shard {s} keys not sorted after local {label}",
                        clock=eng.clock,
                    )
        if self.num_shards == 1:
            return
        # merge exchange: keys + every other column travel off-chip
        parts = [store.get() for store in self.shards]
        merged = {
            name: np.concatenate([p[name] for p in parts])
            for name in self.column_names
        }
        order = np.argsort(merged[key], kind="stable")
        sent_key = merged[key][order]
        redistributed = tuple(merged[name][order] for name in self.column_names)
        key_index = self.column_names.index(key)
        redistributed = self._exchange(
            redistributed,
            label,
            expect_n=self.n,
            key_index=key_index,
            sent_key=sent_key,
            sorted_key=True,
            sent_multisets=redistributed,
        )
        self._charge_exchange(label, volume=self.n)
        self._scatter(dict(zip(self.column_names, redistributed)))

    def scan(self, key: str, op: str = "add") -> np.ndarray:
        """Global inclusive scan of ``key`` (exact for integer operands).

        Per-shard local scans run concurrently; one partial per shard
        crosses the off-chip links; each shard then folds the exclusive
        prefix of partials into its local scan.  Float ``add`` scans
        re-associate across shard boundaries — use integer columns when
        bit-exactness against a flat scan matters.
        """
        if op not in _SCAN_OPS:
            raise ValueError(f"unknown scan op {op!r} (know {tuple(_SCAN_OPS)})")
        eng = self.engine
        cost_scan = eng.clock.cost.scan if eng is not None else 0.0
        locals_ = [store.local_scan(key, op) for store in self.shards]
        self._charge_intra(cost_scan, "shard:scan")
        if self.num_shards == 1:
            return locals_[0]
        # one partial per non-empty shard crosses the off-chip links
        sent = np.array([loc[-1] for loc in locals_ if loc.shape[0]])
        (arrived,) = self._exchange(
            (sent,), "scan", expect_n=int(sent.shape[0]), key_index=0, sent_key=sent
        )
        self._charge_exchange("scan", volume=int(sent.shape[0]))
        ufunc = _SCAN_OPS[op]
        out_parts: list[np.ndarray] = []
        carry = None
        ai = 0
        for loc in locals_:
            if loc.shape[0] == 0:
                out_parts.append(loc)
                continue
            if carry is not None:
                loc = ufunc(loc, loc.dtype.type(carry))
            out_parts.append(loc)
            # the next shard folds in the partial as it *arrived* off-chip
            part = arrived[ai] if ai < arrived.shape[0] else loc[-1]
            carry = part if carry is None else ufunc(carry, part)
            ai += 1
        return np.concatenate(out_parts)

    def route(self, targets: str, label: str = "route") -> None:
        """Permute records to the global positions in column ``targets``.

        Intra-chip scatters run concurrently; exactly the records whose
        destination lies on another chiplet cross the off-chip links.
        """
        eng = self.engine
        cost_route = eng.clock.cost.route if eng is not None else 0.0
        self._charge_intra(cost_route, f"shard:{label}")
        parts = [store.get() for store in self.shards]
        merged = {
            name: np.concatenate([p[name] for p in parts])
            if self.num_shards > 1
            else parts[0][name]
            for name in self.column_names
        }
        dest = np.asarray(merged[targets], dtype=np.int64)
        if dest.shape[0] != self.n or (
            self.n and (int(dest.min()) < 0 or int(dest.max()) >= self.n)
        ):
            raise invariant(
                "xchip:route",
                f"targets must be a permutation of [0, {self.n})",
                clock=eng.clock if eng is not None else None,
            )
        out = {
            name: np.empty_like(col) for name, col in merged.items()
        }
        for name, col in merged.items():
            out[name][dest] = col
        # count the records that actually cross a chip boundary
        crossing = 0
        if self.num_shards > 1 and self.n:
            cuts = _cuts(self.n, self.num_shards)
            src_shard = np.searchsorted(cuts[1:], np.arange(self.n), side="right")
            dst_shard = np.searchsorted(cuts[1:], dest, side="right")
            crossing = int(np.count_nonzero(src_shard != dst_shard))
        sent = tuple(out[name] for name in self.column_names)
        arrays = self._exchange(
            sent,
            label,
            expect_n=self.n,
            key_index=self.column_names.index(targets),
            sent_key=out[targets],
            sent_multisets=sent,
        )
        self._charge_exchange(label, volume=crossing)
        self._scatter(dict(zip(self.column_names, arrays)))

    # -- redistribution ----------------------------------------------------

    def _scatter(self, columns: dict[str, np.ndarray]) -> None:
        """Re-partition full columns back into the shards' contiguous cuts."""
        n = int(next(iter(columns.values())).shape[0])
        self.n = n
        cuts = _cuts(n, self.num_shards) if n >= 1 else None
        for s, store in enumerate(self.shards):
            lo, hi = (int(cuts[s]), int(cuts[s + 1])) if cuts is not None else (0, 0)
            store.put({k: v[lo:hi] for k, v in columns.items()})
