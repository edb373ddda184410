"""Snapshot format: round trips, versioned header, corruption detection."""

import hashlib
import io
import json

import numpy as np
import pytest

import repro.serve.snapshot as snapshot_module
from repro.serve import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    compute_snapshot_id,
    read_snapshot,
    write_snapshot,
)

KINDS = ["pointloc", "linepoly", "interval"]


def _split(path) -> tuple[bytes, dict, bytes]:
    """A snapshot file's 8-byte prefix, parsed header and payload."""
    data = path.read_bytes()
    end = 16 + int.from_bytes(data[8:16], "little")
    return data[:8], json.loads(data[16:end]), data[end:]


def _pack(prefix: bytes, header: dict, payload: bytes) -> io.BytesIO:
    """Reassemble a snapshot file, re-padding the header to 64 bytes."""
    body = json.dumps(header).encode()
    body = body.ljust(-(-(16 + len(body)) // 64) * 64 - 16)
    return io.BytesIO(prefix + len(body).to_bytes(8, "little") + body + payload)


def _rewrite_header(path, mutate) -> io.BytesIO:
    """Reload a snapshot file, apply ``mutate(header_dict)``, re-pack."""
    prefix, header, payload = _split(path)
    mutate(header)
    return _pack(prefix, header, payload)


def _entry(header: dict, name: str) -> list:
    return next(e for e in header["layout"] if e[0] == name)


def _tobytes_id(kind, arrays) -> str:
    """The snapshot id as the format's first version computed it."""
    digest = hashlib.sha256()
    digest.update(kind.encode())
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_header_fields_survive(self, kind, all_envs):
        env = all_envs[kind]
        snapshot = read_snapshot(env["path"])
        assert snapshot.kind == kind
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.snapshot_id == env["snapshot"].snapshot_id
        assert snapshot.meta == env["snapshot"].meta
        assert set(snapshot.arrays) == set(env["snapshot"].arrays)
        for name, arr in snapshot.arrays.items():
            # tree payloads pad with NaN sentinels, so NaN == NaN here
            eq_nan = arr.dtype.kind == "f"
            assert np.array_equal(
                arr, env["snapshot"].arrays[name], equal_nan=eq_nan
            ), name

    @pytest.mark.parametrize("kind", KINDS)
    def test_provenance_recorded(self, kind, all_envs):
        # restore must be able to report what environment built the
        # structure, mirroring the bench documents' provenance block
        prov = read_snapshot(all_envs[kind]["path"]).provenance
        assert prov and prov["platform"]
        assert "numpy" in prov["versions"]

    def test_id_is_content_derived(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.int64)}
        s1 = write_snapshot(tmp_path / "one.snap", "pointloc", arrays, {"height": 1, "mu": 2.0})
        s2 = write_snapshot(tmp_path / "two.snap", "pointloc", arrays, {"height": 1, "mu": 2.0})
        assert s1.snapshot_id == s2.snapshot_id
        s3 = write_snapshot(
            tmp_path / "three.snap", "pointloc",
            {"a": np.arange(6, dtype=np.int64)}, {"height": 1, "mu": 2.0},
        )
        assert s3.snapshot_id != s1.snapshot_id
        # the kind participates: same bytes, different restore path
        assert (
            compute_snapshot_id("interval", arrays)
            != compute_snapshot_id("pointloc", arrays)
        )

    def test_zero_d_and_empty_arrays_round_trip(self, tmp_path):
        arrays = {
            "scalar": np.array(3.5),
            "empty": np.empty((0, 3), dtype=np.int32),
            "flags": np.array([True, False, True]),
            "big_endian": np.arange(4, dtype=">u2"),
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        }
        written = write_snapshot(tmp_path / "odd.snap", "interval", arrays, {})
        snap = read_snapshot(tmp_path / "odd.snap", expected_id=written.snapshot_id)
        assert snap.snapshot_id == written.snapshot_id == _tobytes_id("interval", arrays)
        assert set(snap.arrays) == set(arrays)
        for name, arr in arrays.items():
            got = snap.arrays[name]
            assert got.shape == arr.shape and got.dtype == arr.dtype, name
            assert np.array_equal(got, arr), name

    def test_payload_offsets_are_aligned(self, interval_env):
        _, header, payload = _split(interval_env["path"])
        header_len = int.from_bytes(interval_env["path"].read_bytes()[8:16], "little")
        assert (16 + header_len) % 64 == 0
        assert all(entry[3] % 64 == 0 for entry in header["layout"])
        assert header["payload_bytes"] == len(payload)


class TestSnapshotId:
    @pytest.mark.parametrize("kind", KINDS)
    def test_ids_match_tobytes_formula(self, kind, all_envs):
        # hashing buffers in place must not move any id: ids are cache keys
        snap = read_snapshot(all_envs[kind]["path"])
        assert snap.snapshot_id == _tobytes_id(kind, snap.arrays)
        assert snap.snapshot_id == all_envs[kind]["snapshot"].snapshot_id

    def test_zero_d_hashes_as_one_element(self):
        # ascontiguousarray lifts 0-d to (1,); the id formula keeps that
        assert compute_snapshot_id("interval", {"a": np.array(7)}) == compute_snapshot_id(
            "interval", {"a": np.array([7])}
        )


class TestValidation:
    def test_bad_magic_rejected(self, pointloc_env):
        buf = _rewrite_header(pointloc_env["path"], lambda h: h.update(magic="nope"))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(buf)

    def test_future_version_rejected(self, pointloc_env):
        buf = _rewrite_header(
            pointloc_env["path"], lambda h: h.update(version=SNAPSHOT_VERSION + 1)
        )
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(buf)

    def test_unknown_kind_rejected(self, pointloc_env):
        buf = _rewrite_header(pointloc_env["path"], lambda h: h.update(kind="voronoi"))
        with pytest.raises(SnapshotError, match="kind"):
            read_snapshot(buf)

    def test_tampered_content_rejected(self, pointloc_env):
        # flip one array element but keep the recorded id: the recomputed
        # hash disagrees and the restore refuses
        prefix, header, payload = _split(pointloc_env["path"])
        offset = _entry(header, "adjacency")[3]
        payload = bytearray(payload)
        payload[offset] ^= 1
        with pytest.raises(SnapshotError, match="hash mismatch"):
            read_snapshot(_pack(prefix, header, bytes(payload)))

    def test_not_a_snapshot_rejected(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"just some text, not a snapshot at all\n" * 4)
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            read_snapshot(plain)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(tmp_path / "absent.snap", expected_id="abc")

    def test_v1_npz_rejected(self, pointloc_env, tmp_path):
        # the first format: the same arrays in an .npz with the header as
        # a uint8 member; it fails closed and the error names the version
        snap = pointloc_env["snapshot"]
        old = tmp_path / "v1.npz"
        header = json.dumps({"magic": SNAPSHOT_MAGIC, "version": 1, "kind": snap.kind})
        np.savez(
            old,
            __repro_header__=np.frombuffer(header.encode(), dtype=np.uint8),
            **snap.arrays,
        )
        with pytest.raises(SnapshotError, match="version 1") as info:
            read_snapshot(old, expected_id=snap.snapshot_id)
        assert snap.snapshot_id in str(info.value)

    @pytest.mark.parametrize(
        "dtype",
        ["|O", {"names": ["a", "b"], "formats": ["<i4", "<i4"]}],
        ids=["object", "structured"],
    )
    def test_read_refuses_non_plain_dtype(self, pointloc_env, dtype):
        # the same 8-byte items, relabelled: nothing but plain numbers or
        # bools is ever materialised (no pickles, no records)
        buf = _rewrite_header(
            pointloc_env["path"],
            lambda h: _entry(h, "adjacency").__setitem__(1, dtype),
        )
        with pytest.raises(SnapshotError, match="not plain numeric or bool"):
            read_snapshot(buf)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([object(), None], dtype=object),
            np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
            np.array(["ab", "cd"]),
        ],
        ids=["object", "structured", "unicode"],
    )
    def test_write_refuses_non_plain_dtype(self, tmp_path, array):
        path = tmp_path / "x.snap"
        with pytest.raises(SnapshotError, match="not plain numeric or bool"):
            write_snapshot(path, "pointloc", {"a": array}, {})
        assert not path.exists()

    @pytest.mark.parametrize("field", ["offset", "nbytes"])
    def test_layout_entry_past_eof_rejected(self, pointloc_env, field):
        def push_past_end(header):
            entry = _entry(header, "adjacency")
            if field == "offset":
                entry[3] = header["payload_bytes"]
            else:
                entry[4] = header["payload_bytes"] + 64
        buf = _rewrite_header(pointloc_env["path"], push_past_end)
        want = pointloc_env["snapshot"].snapshot_id
        with pytest.raises(SnapshotError, match="does not fit") as info:
            read_snapshot(buf, expected_id=want)
        assert want in str(info.value)

    def test_overlapping_layout_entries_rejected(self, pointloc_env):
        def overlap(header):
            first, second = header["layout"][:2]
            second[3] = first[3]
        with pytest.raises(SnapshotError, match="does not fit"):
            read_snapshot(_rewrite_header(pointloc_env["path"], overlap))

    @pytest.mark.parametrize("header_len", [10**6, 2**63])
    def test_header_length_past_eof_rejected(self, pointloc_env, header_len):
        data = bytearray(pointloc_env["path"].read_bytes())
        data[8:16] = header_len.to_bytes(8, "little")
        want = pointloc_env["snapshot"].snapshot_id
        with pytest.raises(SnapshotError, match="torn write") as info:
            read_snapshot(io.BytesIO(bytes(data)), expected_id=want)
        assert want in str(info.value)

    def test_write_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(SnapshotError, match="kind"):
            write_snapshot(tmp_path / "x.snap", "voronoi", {"a": np.arange(3)}, {})

    def test_magic_constant(self, pointloc_env):
        # the on-disk prefix, magic and version are the format contract
        assert SNAPSHOT_MAGIC == "repro-snapshot"
        assert pointloc_env["path"].read_bytes()[:8] == b"REPROSNP"
        snapshot = read_snapshot(pointloc_env["path"])
        assert snapshot.version == SNAPSHOT_VERSION == 2


class TestAtomicWrite:
    """A write lands whole or not at all: readers see the old snapshot or
    the new one, and a failed write leaves no temporary file behind."""

    ARRAYS = {"a": np.arange(100_000, dtype=np.int64), "b": np.ones(5)}

    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "live.snap"
        before = write_snapshot(path, "interval", {"a": np.arange(7)}, {"k": 2})
        real_open = open

        class DiskFull:
            """A file that accepts the header, then fails mid-payload."""

            def __init__(self, *args):
                self.f = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if self.f.tell() > 0:
                    self.f.write(bytes(memoryview(data).cast("B")[:100]))
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(snapshot_module, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space"):
            write_snapshot(path, "interval", self.ARRAYS, {"k": 2})
        monkeypatch.undo()
        assert read_snapshot(path, expected_id=before.snapshot_id).meta == {"k": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["live.snap"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "live.snap"
        write_snapshot(path, "interval", {"a": np.arange(7)}, {})
        after = write_snapshot(path, "interval", self.ARRAYS, {})
        assert read_snapshot(path, expected_id=after.snapshot_id).arrays["a"].size == 100_000
        assert sorted(p.name for p in tmp_path.iterdir()) == ["live.snap"]


class TestTornWrites:
    """A truncated or partially-written snapshot must fail *closed* with a
    SnapshotError naming the expected snapshot id — never restore junk,
    never leak numpy or OS internals as the caller-visible error."""

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncated_file_fails_closed(self, pointloc_env, tmp_path, keep_fraction):
        data = pointloc_env["path"].read_bytes()
        torn = tmp_path / f"torn_{int(keep_fraction * 1000)}.snap"
        torn.write_bytes(data[: int(len(data) * keep_fraction)])
        want = pointloc_env["snapshot"].snapshot_id
        with pytest.raises(SnapshotError) as info:
            read_snapshot(torn, expected_id=want)
        # the error names the snapshot the caller wanted, even though the
        # file is too damaged to say what it holds
        assert want in str(info.value)
        assert "torn" in str(info.value) or "mismatch" in str(info.value)

    def test_truncation_without_expected_id_still_fails(self, pointloc_env, tmp_path):
        data = pointloc_env["path"].read_bytes()
        torn = tmp_path / "torn.snap"
        torn.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(torn)

    def test_trailing_bytes_rejected(self, pointloc_env, tmp_path):
        # a file longer than its layout is not the file that was written
        long = tmp_path / "long.snap"
        long.write_bytes(pointloc_env["path"].read_bytes() + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="header declares"):
            read_snapshot(long)

    def test_garbage_prefix_fails_closed(self, pointloc_env, tmp_path):
        bad = tmp_path / "garbage.snap"
        bad.write_bytes(b"\x00" * 512)
        want = pointloc_env["snapshot"].snapshot_id
        with pytest.raises(SnapshotError) as info:
            read_snapshot(bad, expected_id=want)
        assert want in str(info.value)

    def test_wrong_snapshot_rejected_by_expected_id(self, pointloc_env, interval_env):
        # an intact snapshot of the wrong build: hash-valid, but not the
        # one the caller pinned — the swap is detected by id, not luck
        want = pointloc_env["snapshot"].snapshot_id
        with pytest.raises(SnapshotError, match="not the expected"):
            read_snapshot(interval_env["path"], expected_id=want)

    def test_expected_id_accepts_the_right_file(self, pointloc_env):
        snap = read_snapshot(
            pointloc_env["path"],
            expected_id=pointloc_env["snapshot"].snapshot_id,
        )
        assert snap.snapshot_id == pointloc_env["snapshot"].snapshot_id
