"""Crash-safe checkpoint/restore for all three engines.

See :mod:`repro.ckpt.snapshot` for the on-disk format,
:mod:`repro.ckpt.state` for what is captured per engine, and
:mod:`repro.ckpt.checkpoint` for the run-side driver and the one run
procedure (:class:`ResumableRun`).  ``python -m repro.ckpt info``
inspects snapshots.  The package is a lazy index (:mod:`repro._lazy`):
every CLI run imports the run procedure and the interrupt helpers, and
only a run with a checkpointer imports the snapshot code.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.ckpt.checkpoint": (
        "Checkpointer", "ResumableRun", "deferred_interrupts", "wall_deadline",
    ),
    "repro.errors": ("SnapshotError",),
    "repro.ckpt.snapshot": (
        "SNAPSHOT_SUFFIX", "read_snapshot", "write_snapshot",
        "list_snapshots", "common_resume_seq",
    ),
    "repro.ckpt.state": ("capture_state", "restore_state"),
})
