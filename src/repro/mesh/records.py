"""Packed vertex records for the multisearch round loops.

A search structure's vertex record is three arrays: ``adjacency``
(``(V, d)`` int64), ``level`` (``(V,)`` int64) and ``payload``
(``(V, p)`` float64).  The Algorithm 1 advancer
(:mod:`repro.core.hierdag`) and the Constrained-Multisearch round loop
(:mod:`repro.core.constrained`) read the whole record of every vertex
their live queries visit, once per level or round.  Reading three
arrays costs three random gathers; :func:`packed_vertices` stacks the
fields into ONE int64 block (floats bit-cast, which is lossless at equal
itemsize), so the same read is a single row fancy-index touching one
aligned row per vertex.  The gathers are memory-latency-bound, so one
row stream instead of three is what the loops gain.

The block only changes how the host moves arrays: successors receive
views with the fields' own dtypes and shapes, so outputs and mesh-step
charges are those of the per-field reads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedVertices", "packed_vertices"]

_WORD = np.dtype(np.int64)


class PackedVertices:
    """``adjacency``, ``level`` and ``payload`` as columns of one int64 block.

    Row *v* of :attr:`block` is vertex *v*'s record.  :meth:`gather`
    reads the records of many vertices with one row fancy-index.
    """

    def __init__(self, adjacency: np.ndarray, level: np.ndarray, payload: np.ndarray):
        n = level.shape[0]
        cols = []
        #: name -> (first column, width, 1-D?, the field's own dtype)
        self.spans: dict[str, tuple[int, int, bool, np.dtype]] = {}
        c = 0
        for name, a in (("adjacency", adjacency), ("level", level), ("payload", payload)):
            a = np.asarray(a)
            if a.dtype.itemsize != _WORD.itemsize or a.ndim not in (1, 2):
                raise TypeError(
                    f"{name} must be a 1-D or 2-D array of 8-byte words, "
                    f"got {a.ndim}-D {a.dtype}"
                )
            width = 1 if a.ndim == 1 else a.shape[1]
            self.spans[name] = (c, width, a.ndim == 1, a.dtype)
            cols.append(a.reshape(n, width).view(_WORD))
            c += width
        self.block = np.concatenate(cols, axis=1)

    def column(self, rows: np.ndarray, name: str) -> np.ndarray:
        """Field ``name`` of gathered ``rows`` (a view, in its own dtype)."""
        c, width, flat, dtype = self.spans[name]
        cols = rows[:, c] if flat else rows[:, c : c + width]
        return cols if dtype == _WORD else cols.view(dtype)

    def gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(payload, adjacency, level)`` of vertices ``ids`` — the
        successor's argument order — as views of one row gather."""
        rows = self.block[ids]
        return (
            self.column(rows, "payload"),
            self.column(rows, "adjacency"),
            self.column(rows, "level"),
        )


def packed_vertices(structure) -> PackedVertices:
    """The structure's :class:`PackedVertices`, cached on the structure.

    The cache is guarded by the identity of the three source arrays:
    replacing any of them repacks.  Mutating one in place after first
    use requires dropping the ``_repro_packed`` attribute.  Frozen or
    slotted structures are packed afresh on every call.
    """
    src = (structure.adjacency, structure.level, structure.payload)
    cached = getattr(structure, "_repro_packed", None)
    if cached is not None and all(a is b for a, b in zip(cached[0], src)):
        return cached[1]
    packed = PackedVertices(*src)
    try:
        structure._repro_packed = (src, packed)
    except (AttributeError, TypeError):  # frozen/slotted structures: no cache
        pass
    return packed
