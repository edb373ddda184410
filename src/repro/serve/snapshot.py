"""Structure snapshots: build once, serve forever.

A snapshot is one flat file: the prefix ``REPROSNP``, a JSON header's
length as a little-endian u64, the header (space-padded to a 64-byte
boundary), then each array's raw bytes at a 64-byte-aligned offset of
the payload.  Only plain numeric and bool dtypes are written or read,
so a restore never unpickles anything.  The header records ``magic`` /
``version`` (format identity); ``kind`` (``pointloc`` / ``linepoly`` /
``interval``: which restore path applies); ``meta``, the scalars the
structure's successor function needs (tree height, DAG levels, ``mu``),
so restore runs **no construction**; ``provenance``, the environment
that built it, as in the bench documents; ``layout``, one ``[name,
dtype, shape, offset, nbytes]`` per array, and ``payload_bytes``,
checked against the file's size before any array is allocated; and
``snapshot_id``, a sha256 over ``kind`` and every array's name, dtype,
shape and bytes: the cache-key component that pins answers to the exact
arrays, which ``read_snapshot`` recomputes to detect corruption.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
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
SNAPSHOT_VERSION = 2
_PREFIX = b"REPROSNP"
_LEAD = len(_PREFIX) + 8  # the prefix and the header's u64 length
_ALIGN = 64
_DTYPE_KINDS = "biufc"  # bool, signed, unsigned, float, complex
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


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def compute_snapshot_id(kind: str, arrays: dict[str, np.ndarray]) -> str:
    """Content hash over ``kind`` and the arrays, order-independent.

    Hashes each buffer in place; a 0-d array hashes as shape ``(1,)``
    (``ascontiguousarray``), as in every earlier format.
    """
    digest = hashlib.sha256()
    digest.update(kind.encode())
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}{arr.dtype}{arr.shape!r}".encode())
        digest.update(arr)
    return digest.hexdigest()


def write_snapshot(
    path, kind: str, arrays: dict[str, np.ndarray], meta: dict
) -> Snapshot:
    """Serialize a built structure to ``path``; returns the Snapshot.

    Writes a temporary sibling, removed if the write fails, and moves it
    over ``path``: a reader sees the old snapshot or the new, never part.
    """
    if kind not in _KINDS:
        raise SnapshotError(f"unknown snapshot kind {kind!r} (expected one of {_KINDS})")
    arrays = {name: np.asarray(arr, order="C") for name, arr in arrays.items()}
    bad = {n: str(a.dtype) for n, a in arrays.items() if a.dtype.kind not in _DTYPE_KINDS}
    if bad:
        raise SnapshotError(f"arrays {bad} are not plain numeric or bool")
    from repro.bench.runner import provenance

    snapshot_id = compute_snapshot_id(kind, arrays)
    layout, offset = [], 0
    for name, arr in arrays.items():
        layout.append([name, arr.dtype.str, list(arr.shape), offset, arr.nbytes])
        offset = _aligned(offset + arr.nbytes)
    header = {
        "magic": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION, "kind": kind,
        "meta": meta, "snapshot_id": snapshot_id, "provenance": provenance(),
        "layout": layout, "payload_bytes": offset,
    }
    body = json.dumps(header, sort_keys=True).encode()
    body = body.ljust(_aligned(_LEAD + len(body)) - _LEAD)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_PREFIX + len(body).to_bytes(8, "little") + body)
            for arr in arrays.values():
                f.write(arr)
                f.write(bytes(_aligned(arr.nbytes) - arr.nbytes))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Snapshot(kind, arrays, dict(meta), snapshot_id, provenance=header["provenance"])


def read_snapshot(path, expected_id: str | None = None) -> Snapshot:
    """Load and validate a snapshot from a path or a seekable binary file.

    Raises :class:`SnapshotError` on a bad prefix or magic, a version
    other than 2 (a ``.npz`` is version 1), an unknown kind, a dtype
    that is not plain numeric or bool, a size or layout that does not
    fit the file (a torn write), or a content hash that disagrees with
    the header.  Every error names ``expected_id``, when given, even if
    the file is too damaged to say what it holds.
    """
    want = f" (expected snapshot {expected_id})" if expected_id else ""

    def fail(why: str) -> SnapshotError:
        return SnapshotError(f"{path}: {why}{want}")

    f = None
    try:
        f = path if hasattr(path, "read") else open(path, "rb", buffering=0)
        size = f.seek(0, os.SEEK_END)
        f.seek(0)
        lead = f.read(_LEAD)
        if lead.startswith(b"PK\x03\x04"):  # version 1 was a .npz (zip) archive
            raise fail(f"snapshot version 1 (.npz) not supported (expected {SNAPSHOT_VERSION})")
        if len(lead) < _LEAD or not lead.startswith(_PREFIX):
            raise fail(f"not a repro snapshot, or a torn write (lead {lead!r} of {size} bytes)")
        base = _LEAD + int.from_bytes(lead[len(_PREFIX):], "little")
        if base > size:
            raise fail(f"torn write: the header ends at byte {base} of {size}")
        try:
            header = dict(json.loads(f.read(base - _LEAD)))
        except (TypeError, ValueError) as exc:  # not UTF-8 JSON, or not an object
            raise fail(f"unreadable snapshot header: {exc}") from exc
        if header.get("magic") != SNAPSHOT_MAGIC:
            raise fail(f"bad magic {header.get('magic')!r}")
        if (version := header.get("version")) != SNAPSHOT_VERSION:
            raise fail(f"snapshot version {version!r} not supported (expected {SNAPSHOT_VERSION})")
        if (kind := header.get("kind")) not in _KINDS:
            raise fail(f"unknown snapshot kind {kind!r}")
        try:
            payload = int(header["payload_bytes"])
            layout = [
                (str(name), np.dtype(dtype), tuple(map(int, shape)), int(off), int(nbytes))
                for name, dtype, shape, off, nbytes in header["layout"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise fail(f"malformed snapshot layout ({type(exc).__name__}: {exc})") from exc
        if base + payload != size:
            raise fail(f"{size} bytes, the header declares {base + payload} (torn write?)")
        # arrays lie in order and apart, so what is allocated fits the file
        arrays, end = {}, 0
        for name, dtype, shape, off, nbytes in layout:
            if dtype.kind not in _DTYPE_KINDS:
                raise fail(f"array {name!r} has dtype {dtype}, not plain numeric or bool")
            if (min(shape, default=0) < 0 or off < end or off % _ALIGN
                    or off + nbytes > payload or nbytes != math.prod(shape) * dtype.itemsize):
                raise fail(f"array {name!r} at bytes {off}+{nbytes} does not fit the payload")
            arrays[name], end = np.empty(shape, dtype), off + nbytes
            f.seek(base + off)
            if f.readinto(arrays[name]) != nbytes:
                raise fail(f"torn write: array {name!r} read short")
    except OSError as exc:
        raise fail(f"unreadable snapshot ({type(exc).__name__}: {exc})") from exc
    finally:
        if f is not None and f is not path:
            f.close()
    recomputed = compute_snapshot_id(kind, arrays)
    if recomputed != header.get("snapshot_id"):
        raise fail(f"content hash mismatch (header {header.get('snapshot_id')!r}, "
                   f"recomputed {recomputed!r}) — file corrupt or modified")
    if expected_id is not None and recomputed != expected_id:
        raise fail(f"snapshot id {recomputed!r} is not the expected one — file "
                   "replaced or restored from the wrong build")
    meta, prov = header.get("meta", {}), header.get("provenance")
    return Snapshot(kind, arrays, meta, recomputed, version, prov)


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
