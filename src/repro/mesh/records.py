"""Packed vertex records for the multisearch round loops.

A search structure's vertex record is three arrays: ``adjacency``
(``(V, d)`` int64), ``level`` (``(V,)`` int64) and ``payload``
(``(V, p)`` float64).  Every multisearch reads the whole record of each
vertex its live queries visit: the Algorithm 1 advancer
(:mod:`repro.core.hierdag`) once per level, the Constrained-Multisearch
round loop (:mod:`repro.core.constrained`) once per round, and the
full-mesh multistep (:class:`repro.core.model.GraphStore`) as one RAR.
Reading three arrays costs three random gathers; :func:`packed_vertices`
stacks the fields into ONE int64 block (floats bit-cast, which is
lossless at equal itemsize), so the same read is a single row
fancy-index touching one aligned row per vertex.  The gathers are
memory-latency-bound, so one row stream instead of three is what the
loops gain.

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
    reads the records of many vertices with one row fancy-index, and
    :meth:`fields` splits rows read any other way.  The block is
    read-only: it is shared by every search over the structure.
    """

    def __init__(self, adjacency: np.ndarray, level: np.ndarray, payload: np.ndarray):
        n = level.shape[0]
        cols = []
        #: name -> (the field's column index or slice, the dtype to view
        #: it as, ``None`` when it is stored as is)
        views: dict[str, tuple[int | slice, np.dtype | None]] = {}
        c = 0
        for name, a in (("adjacency", adjacency), ("level", level), ("payload", payload)):
            a = np.asarray(a)
            if a.dtype.itemsize != _WORD.itemsize or a.ndim not in (1, 2):
                raise TypeError(
                    f"{name} must be a 1-D or 2-D array of 8-byte words, "
                    f"got {a.ndim}-D {a.dtype}"
                )
            width = 1 if a.ndim == 1 else a.shape[1]
            views[name] = (
                c if a.ndim == 1 else slice(c, c + width),
                None if a.dtype == _WORD else a.dtype,
            )
            cols.append(a.reshape(n, width).view(_WORD))
            c += width
        self.block = np.concatenate(cols, axis=1)
        self.block.setflags(write=False)
        self._views = tuple(views[name] for name in ("payload", "adjacency", "level"))

    def fields(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(payload, adjacency, level)`` of gathered ``rows`` — the
        successor's argument order — as views in the fields' own dtypes
        and shapes."""
        (pk, pd), (ak, ad), (lk, ld) = self._views
        payload, adjacency, level = rows[:, pk], rows[:, ak], rows[:, lk]
        return (
            payload if pd is None else payload.view(pd),
            adjacency if ad is None else adjacency.view(ad),
            level if ld is None else level.view(ld),
        )

    def gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`fields` of vertices ``ids``, read with one row gather."""
        return self.fields(self.block[ids])


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
