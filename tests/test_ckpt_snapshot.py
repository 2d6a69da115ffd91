"""Snapshot container: roundtrip, integrity rejection, listing order."""

import pytest

from repro.ckpt.snapshot import (
    MAGIC,
    SNAPSHOT_SUFFIX,
    common_resume_seq,
    list_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.errors import SnapshotError

PAYLOAD = {
    "kind": "sequential",
    "loop": {"processed": 42},
    "nested": {"shared": [1, 2, 3]},
}


def test_roundtrip(tmp_path):
    p = tmp_path / f"one{SNAPSHOT_SUFFIX}"
    write_snapshot(p, PAYLOAD)
    assert read_snapshot(p) == PAYLOAD


def test_roundtrip_preserves_object_sharing(tmp_path):
    shared = {"x": 1}
    p = write_snapshot(tmp_path / f"s{SNAPSHOT_SUFFIX}",
                       {"kind": "sequential", "a": shared, "b": shared})
    loaded = read_snapshot(p)
    assert loaded["a"] is loaded["b"]


def test_flipped_payload_byte_rejected(tmp_path):
    p = write_snapshot(tmp_path / f"c{SNAPSHOT_SUFFIX}", PAYLOAD)
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="integrity hash mismatch"):
        read_snapshot(p)


def test_truncation_rejected(tmp_path):
    p = write_snapshot(tmp_path / f"t{SNAPSHOT_SUFFIX}", PAYLOAD)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(SnapshotError, match="integrity hash mismatch"):
        read_snapshot(p)
    p.write_bytes(raw[:10])  # not even a full header
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(p)


def test_bad_magic_rejected(tmp_path):
    p = write_snapshot(tmp_path / f"m{SNAPSHOT_SUFFIX}", PAYLOAD)
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="bad magic"):
        read_snapshot(p)


def test_future_version_rejected(tmp_path):
    p = write_snapshot(tmp_path / f"v{SNAPSHOT_SUFFIX}", PAYLOAD)
    raw = bytearray(p.read_bytes())
    assert raw[: len(MAGIC)] == MAGIC
    raw[len(MAGIC)] = 99  # little-endian u32 version right after the magic
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="unsupported snapshot version 99"):
        read_snapshot(p)


def test_payload_without_kind_rejected(tmp_path):
    p = write_snapshot(tmp_path / f"k{SNAPSHOT_SUFFIX}", {"no": "kind"})
    with pytest.raises(SnapshotError, match="no engine kind"):
        read_snapshot(p)


def test_listing_order_and_latest(tmp_path):
    assert list_snapshots(tmp_path) == []
    assert common_resume_seq([tmp_path]) is None
    for i in (2, 0, 10, 1):
        write_snapshot(
            tmp_path / f"ckpt_{i:06d}{SNAPSHOT_SUFFIX}", dict(PAYLOAD, i=i)
        )
    names = [p.name for p in list_snapshots(tmp_path)]
    assert names == [
        "ckpt_000000.rpsnap", "ckpt_000001.rpsnap",
        "ckpt_000002.rpsnap", "ckpt_000010.rpsnap",
    ]
    assert common_resume_seq([tmp_path]) == 10
    assert list_snapshots(tmp_path / "missing") == []
    # Across shard directories: the newest sequence every one holds.
    other = tmp_path / "other"
    other.mkdir()
    for i in (0, 1, 2, 3):
        write_snapshot(other / f"ckpt_{i:06d}{SNAPSHOT_SUFFIX}", dict(PAYLOAD, i=i))
    assert common_resume_seq([tmp_path, other]) == 2
    assert common_resume_seq([tmp_path, tmp_path / "missing"]) is None
