"""``python -m repro.ckpt info DIR`` — snapshot forensics.

``info`` reads every snapshot in the directory (integrity hash and
version checks included) and prints one line each: engine kind, file
sequence number, boundary count, GVT, whether telemetry sink state rides
along, and the configuration marker.  Corrupt files are reported and
make the command exit 1 — it doubles as an integrity scan.  The crash
drill (SIGKILL a checkpointed ``python -m repro.hotpotato`` run, resume
it, compare its recording with an uninterrupted run's) is a shell recipe
in docs/CHECKPOINT.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.ckpt.snapshot import list_snapshots, read_snapshot
from repro.errors import SnapshotError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro.ckpt`` CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="Inspect checkpoint snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list and verify a snapshot directory")
    p.add_argument("dir", type=Path)
    return parser


def cmd_info(directory: Path) -> int:
    """Verify and describe every snapshot in ``directory``."""
    paths = list_snapshots(directory)
    if not paths:
        print(f"{directory}: no snapshots")
        return 1
    bad = 0
    for path in paths:
        try:
            payload = read_snapshot(path)
        except SnapshotError as exc:
            print(f"{path.name}: CORRUPT ({exc})")
            bad += 1
            continue
        meta = payload.get("ckpt", {})
        gvt = payload.get("gvt")
        loop = payload.get("loop", {})
        progress = (
            f"gvt={gvt:g}" if gvt is not None
            else f"processed={loop.get('processed', '?')}"
        )
        marker = payload.get("marker", {})
        brief = ", ".join(f"{k}={marker[k]}" for k in sorted(marker)[:4])
        print(
            f"{path.name}: {payload.get('kind', '?'):<12} "
            f"seq={meta.get('seq', '?')} boundaries={meta.get('boundaries', '?')} "
            f"{progress} obs={'yes' if payload.get('obs') else 'no'}"
            + (f"  [{brief}{', ...' if len(marker) > 4 else ''}]" if marker else "")
        )
    print(f"{len(paths)} snapshot(s), {bad} corrupt")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return cmd_info(args.dir)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
