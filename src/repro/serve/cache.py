"""Bounded LRU result cache for the serving layer.

Keyed on ``(snapshot_id, query bytes)`` — the snapshot id pins the exact
structure arrays the answer was computed against, so a cache can safely
outlive a restart as long as it is re-keyed against the same snapshot.

Hit/miss counters are per-instance counts plus zero-step trace events
(``result-cache:hit`` / ``result-cache:miss``) on the ambient span so
profiles can attribute a fast batch to caching rather than to the
search.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.mesh.trace import emit_event

__all__ = [
    "ResultCache",
    "query_cache_key",
    "note_coalesced",
]


def query_cache_key(snapshot_id: str, query: np.ndarray) -> tuple[str, bytes] | None:
    """The canonical cache key for one query against one snapshot.

    The query is canonicalized to a contiguous float64 buffer so that the
    same point submitted as a list, a float32 array, or a strided slice
    maps to the same entry.

    Returns ``None`` for rows containing non-finite values: NaN compares
    unequal to itself, so a NaN-bearing row is either malformed input or
    a corruption artifact (the chaos ``nan_query_key`` corruptor's
    signature), and must never populate or serve from the cache.
    :class:`ResultCache` treats a ``None`` key as uncacheable.
    """
    q = np.ascontiguousarray(np.asarray(query, dtype=np.float64))
    if not np.isfinite(q).all():
        return None
    return (snapshot_id, q.tobytes())


class ResultCache:
    """Bounded LRU mapping ``(snapshot_id, query bytes) -> result``.

    Results are stored as read-only scalars/arrays; ``get`` returns the
    stored object (callers must not mutate it — the serving layer hands
    out numpy scalars and per-query copies).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._data: OrderedDict[tuple[str, bytes], object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: tuple[str, bytes] | None):
        """Return ``(found, value)``; refreshes LRU order on a hit.

        A ``None`` key (an uncacheable non-finite row, see
        :func:`query_cache_key`) always misses.
        """
        if key is None:
            self.misses += 1
            emit_event("result-cache:miss")
            return False, None
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            emit_event("result-cache:miss")
            return False, None
        self._data.move_to_end(key)
        self.hits += 1
        emit_event("result-cache:hit")
        return True, value

    def put(self, key: tuple[str, bytes] | None, value) -> None:
        """Store ``value``; a ``None`` key (uncacheable row) is dropped."""
        if key is None:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> list[tuple[str, bytes]]:
        """Snapshot of the stored keys, LRU order (tests audit cleanliness)."""
        return list(self._data.keys())

    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
        }


def note_coalesced() -> None:
    """Record one coalesced miss: an identical query was already in flight.

    Called by the batching front-ends when single-flight dedup piggybacks
    a cache miss on an identical pending computation instead of running
    it again.  Emits the zero-step ``result-cache:coalesced`` trace event
    so profiles can see dedup working alongside hits and misses; the
    front end counts it in its ``stats["coalesced"]``.
    """
    emit_event("result-cache:coalesced")

