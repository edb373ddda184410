"""Snapshot format: round trips, versioned header, corruption detection."""

import io
import json

import numpy as np
import pytest

from repro.serve import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    compute_snapshot_id,
    read_snapshot,
    write_snapshot,
)
from repro.serve.snapshot import _HEADER_KEY


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
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

    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    def test_provenance_recorded(self, kind, all_envs):
        # restore must be able to report what environment built the
        # structure, mirroring the bench documents' provenance block
        prov = read_snapshot(all_envs[kind]["path"]).provenance
        assert prov and prov["platform"]
        assert "numpy" in prov["versions"]

    def test_id_is_content_derived(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.int64)}
        s1 = write_snapshot(tmp_path / "one.npz", "pointloc", arrays, {"height": 1, "mu": 2.0})
        s2 = write_snapshot(tmp_path / "two.npz", "pointloc", arrays, {"height": 1, "mu": 2.0})
        assert s1.snapshot_id == s2.snapshot_id
        s3 = write_snapshot(
            tmp_path / "three.npz", "pointloc",
            {"a": np.arange(6, dtype=np.int64)}, {"height": 1, "mu": 2.0},
        )
        assert s3.snapshot_id != s1.snapshot_id
        # the kind participates: same bytes, different restore path
        assert (
            compute_snapshot_id("interval", arrays)
            != compute_snapshot_id("pointloc", arrays)
        )


def _rewrite_header(path, mutate) -> io.BytesIO:
    """Reload a snapshot file, apply ``mutate(header_dict)``, re-pack."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files if name != _HEADER_KEY}
        header = json.loads(bytes(npz[_HEADER_KEY].tobytes()).decode())
    mutate(header)
    buf = io.BytesIO()
    header_bytes = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(buf, **{_HEADER_KEY: header_bytes}, **arrays)
    buf.seek(0)
    return buf


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
        with np.load(pointloc_env["path"], allow_pickle=False) as npz:
            arrays = {n: np.array(npz[n]) for n in npz.files if n != _HEADER_KEY}
            header_bytes = np.array(npz[_HEADER_KEY])
        arrays["adjacency"][0, 0] += 1
        buf = io.BytesIO()
        np.savez(buf, **{_HEADER_KEY: header_bytes}, **arrays)
        buf.seek(0)
        with pytest.raises(SnapshotError, match="hash mismatch"):
            read_snapshot(buf)

    def test_not_a_snapshot_rejected(self, tmp_path):
        plain = tmp_path / "plain.npz"
        np.savez(plain, a=np.arange(3))
        with pytest.raises(SnapshotError, match="missing header"):
            read_snapshot(plain)

    def test_write_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(SnapshotError, match="kind"):
            write_snapshot(tmp_path / "x.npz", "voronoi", {"a": np.arange(3)}, {})

    def test_write_rejects_reserved_name(self, tmp_path):
        with pytest.raises(SnapshotError, match="reserved"):
            write_snapshot(
                tmp_path / "x.npz", "pointloc", {_HEADER_KEY: np.arange(3)}, {}
            )

    def test_magic_constant(self, pointloc_env):
        # the on-disk magic is part of the format contract
        assert SNAPSHOT_MAGIC == "repro-snapshot"
        snapshot = read_snapshot(pointloc_env["path"])
        assert snapshot.version == 1


class TestTornWrites:
    """A truncated or partially-written .npz must fail *closed* with a
    SnapshotError naming the expected snapshot id — never restore junk,
    never leak zipfile/numpy internals as the caller-visible error."""

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncated_file_fails_closed(self, pointloc_env, tmp_path, keep_fraction):
        data = pointloc_env["path"].read_bytes()
        torn = tmp_path / f"torn_{int(keep_fraction * 1000)}.npz"
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
        torn = tmp_path / "torn.npz"
        torn.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(torn)

    def test_garbage_prefix_fails_closed(self, pointloc_env, tmp_path):
        bad = tmp_path / "garbage.npz"
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
