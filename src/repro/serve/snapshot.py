"""Structure snapshots: build once, serve forever.

A snapshot is a single ``.npz`` file holding a structure's flat arrays
plus a versioned JSON header (stored as a uint8 array under
``__repro_header__``, so the whole file stays one ``np.savez`` archive
loadable with ``allow_pickle=False``).  The header records:

* ``magic`` / ``version`` — format identity, checked on read;
* ``kind`` — which restore path applies (``pointloc`` / ``linepoly`` /
  ``interval``);
* ``meta`` — the scalar parameters the structure's successor function
  needs (tree height, DAG levels, ``mu``, ...), so restore is a factory
  call over the arrays with **no construction re-run**;
* ``provenance`` — the environment that built the structure (library
  versions, platform, CPU), mirroring the bench documents;
* ``snapshot_id`` — a sha256 over ``kind`` plus every array's name,
  dtype, shape and bytes.  The id is content-derived, so it doubles as
  the cache-key component that pins answers to the exact arrays they
  were computed against, and ``read_snapshot`` recomputes it to detect
  corruption.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "compute_snapshot_id",
    "write_snapshot",
    "read_snapshot",
    "snapshot_pointloc",
    "snapshot_linepoly",
    "snapshot_intervals",
]

SNAPSHOT_MAGIC = "repro-snapshot"
SNAPSHOT_VERSION = 1
_HEADER_KEY = "__repro_header__"
_KINDS = ("pointloc", "linepoly", "interval")


class SnapshotError(ValueError):
    """A snapshot file failed validation (magic, version, kind, or id)."""


@dataclass
class Snapshot:
    """An in-memory snapshot: header fields plus the array payload."""

    kind: str
    arrays: dict[str, np.ndarray]
    meta: dict
    snapshot_id: str
    version: int = SNAPSHOT_VERSION
    provenance: dict | None = None


def compute_snapshot_id(kind: str, arrays: dict[str, np.ndarray]) -> str:
    """Content hash over ``kind`` and the arrays, order-independent."""
    digest = hashlib.sha256()
    digest.update(kind.encode())
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def write_snapshot(
    path, kind: str, arrays: dict[str, np.ndarray], meta: dict
) -> Snapshot:
    """Serialize a built structure to ``path``; returns the Snapshot."""
    if kind not in _KINDS:
        raise SnapshotError(f"unknown snapshot kind {kind!r} (expected one of {_KINDS})")
    if _HEADER_KEY in arrays:
        raise SnapshotError(f"array name {_HEADER_KEY!r} is reserved")
    from repro.bench.runner import provenance

    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    snapshot_id = compute_snapshot_id(kind, arrays)
    header = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "meta": meta,
        "snapshot_id": snapshot_id,
        "provenance": provenance(),
    }
    header_bytes = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write via an in-memory buffer then one atomic-ish rename-free dump;
    # np.savez appends ".npz" to names without a suffix, so keep control
    buf = io.BytesIO()
    np.savez(buf, **{_HEADER_KEY: header_bytes}, **arrays)
    path.write_bytes(buf.getvalue())
    return Snapshot(
        kind=kind,
        arrays=arrays,
        meta=dict(meta),
        snapshot_id=snapshot_id,
        version=SNAPSHOT_VERSION,
        provenance=header["provenance"],
    )


def read_snapshot(path, expected_id: str | None = None) -> Snapshot:
    """Load and validate a snapshot written by :func:`write_snapshot`.

    Raises :class:`SnapshotError` on a bad magic, an unsupported version,
    an unknown kind, or a content hash that no longer matches the header
    (bit rot / truncation / hand-editing).  ``path`` may also be an open
    binary file object.

    A truncated or partially-written file (a torn write: the ``.npz``
    zip directory lives at the end, so any prefix is unreadable) fails
    *closed*: the low-level load error is wrapped in
    :class:`SnapshotError` instead of leaking ``zipfile``/``numpy``
    internals.  Pass ``expected_id`` (e.g. the id a supervisor restored
    at startup) to pin the restore to one exact snapshot — the error
    then names the snapshot id the caller wanted, even when the file is
    too damaged to say what it holds.
    """
    source = path if hasattr(path, "read") else Path(path)
    want = f" (expected snapshot {expected_id})" if expected_id else ""
    try:
        npz_ctx = np.load(source, allow_pickle=False)
    except SnapshotError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise SnapshotError(
            f"{path}: unreadable snapshot — truncated, torn write, or not "
            f"an archive ({type(exc).__name__}: {exc}){want}"
        ) from exc
    with npz_ctx as npz:
        if _HEADER_KEY not in npz.files:
            raise SnapshotError(
                f"{path}: not a repro snapshot (missing header){want}"
            )
        try:
            header = json.loads(bytes(npz[_HEADER_KEY].tobytes()).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path}: unreadable snapshot header: {exc}") from exc
        if header.get("magic") != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path}: bad magic {header.get('magic')!r}")
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path}: snapshot version {header.get('version')!r} "
                f"not supported (expected {SNAPSHOT_VERSION})"
            )
        kind = header.get("kind")
        if kind not in _KINDS:
            raise SnapshotError(f"{path}: unknown snapshot kind {kind!r}")
        try:
            arrays = {name: npz[name] for name in npz.files if name != _HEADER_KEY}
        except Exception as exc:  # a torn member decompresses short / CRC-fails
            raise SnapshotError(
                f"{path}: snapshot arrays unreadable — torn write or "
                f"corruption ({type(exc).__name__}: {exc}){want}"
            ) from exc
    recomputed = compute_snapshot_id(kind, arrays)
    if recomputed != header.get("snapshot_id"):
        raise SnapshotError(
            f"{path}: content hash mismatch (header {header.get('snapshot_id')!r}, "
            f"recomputed {recomputed!r}) — file corrupt or modified{want}"
        )
    if expected_id is not None and recomputed != expected_id:
        raise SnapshotError(
            f"{path}: snapshot id {recomputed!r} is not the expected "
            f"{expected_id!r} — file replaced or restored from the wrong build"
        )
    return Snapshot(
        kind=kind,
        arrays=arrays,
        meta=header.get("meta", {}),
        snapshot_id=recomputed,
        version=int(header["version"]),
        provenance=header.get("provenance"),
    )


# -- per-application snapshot builders ---------------------------------------
# Construction runs exactly once, here; everything a service needs at query
# time is flattened into arrays + scalar meta via the builders' own hooks.


def snapshot_pointloc(path, sites: np.ndarray, seed=0) -> Snapshot:
    """Build the Kirkpatrick DAG over ``sites`` and snapshot it."""
    from repro.geometry.kirkpatrick import (
        build_kirkpatrick,
        kirkpatrick_snapshot_arrays,
        kirkpatrick_structure,
    )

    hier = build_kirkpatrick(np.asarray(sites, dtype=np.float64), seed=seed)
    structure, mu = kirkpatrick_structure(hier)
    arrays, meta = kirkpatrick_snapshot_arrays(structure, mu)
    return write_snapshot(path, "pointloc", arrays, meta)


def snapshot_linepoly(
    path, points: np.ndarray, seed=0, max_candidates: int = 32
) -> Snapshot:
    """Build the Dobkin-Kirkpatrick tangent DAG over ``points``' hull."""
    from repro.geometry.dk3d import build_dk_hierarchy, dk_tangent_snapshot_arrays

    hier = build_dk_hierarchy(np.asarray(points, dtype=np.float64), seed=seed)
    arrays, meta = dk_tangent_snapshot_arrays(hier, max_candidates=max_candidates)
    return write_snapshot(path, "linepoly", arrays, meta)


def snapshot_intervals(
    path, lefts: np.ndarray, rights: np.ndarray, k: int = 2
) -> Snapshot:
    """Build the interval-counting rank trees and snapshot them."""
    from repro.apps.interval_search import (
        interval_count_snapshot_arrays,
        setup_interval_search,
    )

    setup = setup_interval_search(lefts, rights, k=k)
    arrays, meta = interval_count_snapshot_arrays(setup)
    return write_snapshot(path, "interval", arrays, meta)
