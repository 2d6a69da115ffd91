"""On-disk snapshot container: versioned, integrity-hashed, atomic.

A snapshot file is::

    +----------+---------+------------------+------------------+
    | magic 8B | ver u32 | sha256 digest 32B| payload (pickle) |
    +----------+---------+------------------+------------------+

The digest covers the payload bytes only, so any truncation or bit flip
in the (large) payload is detected before unpickling; magic/version
corruption is detected structurally.  Files are written to a temporary
sibling, fsynced, then ``os.replace``d into place — a crash mid-write
never leaves a half snapshot under the final name.

The payload itself is a single :mod:`pickle` dump of one dict produced
by :mod:`repro.ckpt.state`.  Using exactly one dump matters: the event
graph contains shared payload dicts and parent→child journaling
references, and pickle's memo preserves that sharing only within one
serialization.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import Any

from repro.errors import SnapshotError

__all__ = [
    "MAGIC",
    "VERSION",
    "SNAPSHOT_SUFFIX",
    "write_snapshot",
    "read_snapshot",
    "list_snapshots",
    "common_resume_seq",
    "snapshot_digest",
]

MAGIC = b"RPSNAP01"
VERSION = 1
SNAPSHOT_SUFFIX = ".rpsnap"

_HEADER = struct.Struct("<8sI32s")  # magic, version, sha256(payload)


def snapshot_digest(payload_bytes: bytes) -> bytes:
    """Return the integrity digest stored in the snapshot header."""
    return hashlib.sha256(payload_bytes).digest()


def write_snapshot(path: str | Path, payload: dict[str, Any]) -> Path:
    """Atomically write ``payload`` as a snapshot file at ``path``."""
    path = Path(path)
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable state is a caller bug
        raise SnapshotError(f"cannot serialize snapshot payload: {exc}") from exc
    header = _HEADER.pack(MAGIC, VERSION, snapshot_digest(blob))
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(header)
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_snapshot(path: str | Path) -> dict[str, Any]:
    """Read and verify a snapshot file, returning its payload dict.

    Raises :class:`SnapshotError` on bad magic, unsupported version,
    truncation, or an integrity-hash mismatch.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated snapshot (no header)")
    magic, version, digest = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic {magic!r})")
    if version != VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version} (expected {VERSION})"
        )
    blob = raw[_HEADER.size :]
    if snapshot_digest(blob) != digest:
        raise SnapshotError(f"{path}: integrity hash mismatch (corrupt or truncated)")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # digest passed but unpickle failed: version skew
        raise SnapshotError(f"{path}: cannot decode snapshot payload: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SnapshotError(f"{path}: snapshot payload has no engine kind")
    return payload


def list_snapshots(directory: str | Path) -> list[Path]:
    """Return snapshot files under ``directory``, oldest first.

    Snapshot names embed a monotone sequence number
    (``ckpt_000042.rpsnap``), so lexicographic order is write order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}"))


def common_resume_seq(directories) -> int | None:
    """Highest snapshot sequence number present in *every* directory
    (one directory: its newest snapshot's), or None."""
    common: set[int] | None = None
    for directory in directories:
        seqs = set()
        for path in list_snapshots(directory):
            try:
                seqs.add(int(path.stem.rsplit("_", 1)[-1]))
            except ValueError:
                continue
        common = seqs if common is None else common & seqs
    return max(common) if common else None
