"""The Checkpointer: boundary cadence, snapshot files, deferred interrupts.

One :class:`Checkpointer` drives one run.  Engines accept it via
``attach_checkpointer`` (mirroring ``attach_tracer``/``attach_metrics``/
``attach_faults``) and call back from exactly one place — the GVT /
scheduler-round / event-interval / step-end *boundary*, never the
per-event hot path — so a detached checkpointer costs nothing and an
attached one costs a heartbeat touch plus a modulo per boundary, on the
sequential band program too: it reads the program's step end in place
and materialises state only for a snapshot it writes
(docs/CHECKPOINT.md).

Lifecycle: the CLI and a sweep point each make their run one
:class:`ResumableRun`, which does, in this order::

    ckpt = Checkpointer(dir, every=4, marker={...})
    payload = ckpt.load_latest(procs)     # resume only: finds and checks
    capture = RunCapture.resume(payload["obs"])  # else a fresh capture
    ckpt.capture = capture                # future snapshots carry obs state
    with wall_deadline(...), deferred_interrupts(ckpt):
        result = sim.run(..., checkpointer=ckpt)  # attached last: grafts
    capture.finalize(result)

The whole cut is checked before the capture exists, so a refused resume
truncates no telemetry file, writes no ``manifest.json`` and forks no
worker.

Interrupt handling: inside :func:`deferred_interrupts`, SIGINT only sets
a flag; the next boundary writes a final snapshot from a fully
consistent state and *then* raises :class:`KeyboardInterrupt`, which the
CLI turns into sink finalization and exit code 130.  A second Ctrl-C
before the next boundary is coalesced, not escalated — boundaries are
frequent (every GVT round), so the window is short.

Every CLI run enters :func:`deferred_interrupts` and :func:`wall_deadline`,
so this module imports the snapshot format and the engine-state capture
only inside the methods that read or write a snapshot: a run without a
checkpointer never loads them.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Mapping

from repro.errors import SnapshotError

__all__ = ["Checkpointer", "ResumableRun", "deferred_interrupts", "wall_deadline"]


class Checkpointer:
    """Snapshot writer bound to one engine run.

    Parameters
    ----------
    directory:
        Where snapshot files go (created by the first write).
    every:
        Write a snapshot every N boundaries (GVT rounds / scheduler
        rounds / sequential event intervals or, on a band program, step
        ends).  ``1`` snapshots every boundary; a huge value keeps only
        interrupt-forced snapshots.
    marker:
        Free-form configuration fingerprint (engine kind, workload
        parameters, seed...).  Stored in every snapshot and compared on
        :meth:`load_latest` — restoring into a differently-configured
        run is refused instead of silently diverging.
    heartbeat:
        Optional file whose mtime is touched at *every* boundary
        (snapshot or not); the experiment supervisor's stall watchdog
        reads it as GVT-progress evidence.
    seq_events:
        Boundary period, in committed events, for the sequential
        engine's per-event loop (which has no rounds; a band program's
        boundaries are its step ends).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 1,
        marker: Mapping[str, Any] | None = None,
        heartbeat: str | Path | None = None,
        seq_events: int = 1024,
    ) -> None:
        if every < 1:
            raise SnapshotError(f"every must be >= 1, got {every}")
        if seq_events < 1:
            raise SnapshotError(f"seq_events must be >= 1, got {seq_events}")
        self.dir = Path(directory)
        self.every = every
        self.marker = dict(marker) if marker else {}
        self.heartbeat = Path(heartbeat) if heartbeat is not None else None
        self.seq_events = seq_events
        #: Optional repro.obs.capture.RunCapture whose sink offsets ride
        #: along in every snapshot (set by :class:`ResumableRun` once the
        #: capture is built or resumed).
        self.capture = None
        #: Boundaries seen so far (restored on resume, so the snapshot
        #: cadence of a resumed run matches the uninterrupted one).
        self.boundaries = 0
        #: Next snapshot file index.
        self.seq = 0
        #: Snapshots written by this instance.
        self.written = 0
        #: Path of the most recent snapshot written.
        self.last_path: Path | None = None
        #: Set asynchronously by the SIGINT handler; consumed at the next
        #: boundary (final snapshot + KeyboardInterrupt).
        self.interrupted = False
        #: The cut :meth:`load_latest` armed, one payload per shard.
        self._restore: list | None = None

    # ------------------------------------------------------------------
    # Resume side.
    # ------------------------------------------------------------------
    def load_latest(self, procs: int = 1, *, required: bool = True) -> dict | None:
        """Find, read and check the newest resumable cut; arm its graft.

        In-process (``procs`` 1) the cut is the newest snapshot; in
        process mode it is the newest sequence present in every
        ``shard_<i>`` (a kill between two workers' final writes leaves
        one shard a sequence ahead).  Each file of the cut is read once
        and refused (:class:`SnapshotError`) unless its marker is this
        run's (a shard's adds ``shard`` and ``procs``) and its payload
        format one this version restores.  No cut is refused too, unless
        ``required`` is false (returns ``None``).  :meth:`bind` (or, in
        process mode, :meth:`shards`) then grafts the cut; the first
        payload is returned for its ``"obs"`` sink offsets.
        """
        from repro.ckpt.snapshot import (
            SNAPSHOT_SUFFIX, common_resume_seq, read_snapshot,
        )
        from repro.ckpt.state import check_format

        streams = self._streams(procs)
        seq = common_resume_seq([directory for directory, _ in streams])
        if seq is None:
            if not required:
                return None
            raise SnapshotError(
                f"no snapshot to resume from in {self.dir}"
                + (f" common to all {procs} shards" if procs > 1 else "")
            )
        payloads = []
        for directory, marker in streams:
            path = directory / f"ckpt_{seq:06d}{SNAPSHOT_SUFFIX}"
            payload = read_snapshot(path)
            stored = payload.get("marker", {})
            if stored != marker:
                diff = sorted(
                    k for k in stored.keys() | marker.keys()
                    if stored.get(k) != marker.get(k)
                )
                raise SnapshotError(
                    f"{path}: configuration marker mismatch (differing keys: "
                    f"{', '.join(diff) or '<none>'}); refusing to restore into "
                    "a differently-configured run"
                )
            check_format(payload)
            payloads.append(payload)
        self._restore = payloads
        return payloads[0]

    def _streams(self, procs: int) -> list[tuple[Path, dict]]:
        """Directory and marker of each snapshot stream of the run."""
        if procs == 1:
            return [(self.dir, self.marker)]
        return [
            (self.dir / f"shard_{i}", {**self.marker, "shard": i, "procs": procs})
            for i in range(procs)
        ]

    def shards(self, procs: int) -> list["Checkpointer"]:
        """One checkpointer per worker of a ``procs``-worker run, each
        with its shard of an armed cut; only worker 0's touches the
        heartbeat (the waves keep the workers in lockstep)."""
        restore, self._restore = self._restore, None
        children = []
        for i, (directory, marker) in enumerate(self._streams(procs)):
            child = Checkpointer(
                directory, every=self.every, marker=marker,
                heartbeat=self.heartbeat if i == 0 else None,
            )
            if restore is not None:
                child._restore = [restore[i]]
            children.append(child)
        return children

    def bind(self, engine) -> None:
        """Called by ``attach_checkpointer``: graft the armed cut, and
        continue its snapshot numbering and cadence."""
        restore, self._restore = self._restore, None
        if restore is not None:
            from repro.ckpt.state import restore_state

            (payload,) = restore
            meta = payload.get("ckpt", {})
            self.boundaries = meta.get("boundaries", 0)
            self.seq = meta.get("seq", 0) + 1
            restore_state(engine, payload)

    # ------------------------------------------------------------------
    # Run side.
    # ------------------------------------------------------------------
    def boundary(self, engine, loop=None) -> None:
        """One quiescent boundary: heartbeat, maybe snapshot, maybe stop.

        ``loop`` is the engine's run-loop local state — a dict, or a
        zero-argument callable producing one (evaluated only when a
        snapshot is actually written).
        """
        if self.heartbeat is not None:
            self.heartbeat.touch()
        self.boundaries += 1
        if self.interrupted or self.boundaries % self.every == 0:
            self.write(engine, loop)
        if self.interrupted:
            self.interrupted = False
            raise KeyboardInterrupt

    def write(self, engine, loop=None) -> Path:
        """Write one snapshot of ``engine`` right now."""
        from repro.ckpt.snapshot import SNAPSHOT_SUFFIX, write_snapshot
        from repro.ckpt.state import capture_state

        if callable(loop):
            loop = loop()
        payload = capture_state(engine, loop)
        payload["marker"] = dict(self.marker)
        payload["ckpt"] = {"seq": self.seq, "boundaries": self.boundaries}
        capture = self.capture
        if capture is not None and capture.active:
            payload["obs"] = capture.checkpoint_state()
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"ckpt_{self.seq:06d}{SNAPSHOT_SUFFIX}"
        write_snapshot(path, payload)
        self.seq += 1
        self.written += 1
        self.last_path = path
        return path

    def request_interrupt(self) -> None:
        """Ask for a final snapshot + KeyboardInterrupt at the next boundary."""
        self.interrupted = True


@contextmanager
def deferred_interrupts(ckpt: Checkpointer | None):
    """Route SIGINT through the checkpointer while a run is in flight.

    With ``ckpt=None`` (checkpointing disabled) this is a no-op context:
    SIGINT raises :class:`KeyboardInterrupt` wherever it lands and the
    CLI's handler still closes sinks — the crash-tolerant loader covers
    any torn final line.
    """
    if ckpt is None:
        yield
        return

    def _handler(signum, frame):
        ckpt.request_interrupt()

    try:
        previous = signal.signal(signal.SIGINT, _handler)
    except ValueError:  # not the main thread: leave signals alone
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


@contextmanager
def wall_deadline(seconds: float | None, ckpt: Checkpointer | None):
    """Arm a SIGALRM wall-clock cutoff sharing Ctrl-C's snapshot path.

    After ``seconds`` of wall time the run is interrupted exactly as a
    deferred Ctrl-C would be: with a checkpointer the alarm only calls
    :meth:`Checkpointer.request_interrupt`, so the next boundary writes
    a final snapshot from consistent state and raises
    :class:`KeyboardInterrupt`; without one the alarm raises
    :class:`KeyboardInterrupt` directly.  Yields a zero-argument callable
    that reports whether the deadline fired, so the CLI can distinguish
    a timeout (exit 124, ``timeout(1)``'s convention) from a user
    interrupt (exit 130).  ``seconds`` of ``None`` or ``<= 0`` disables
    the cutoff (no-op context).
    """
    fired = False

    def expired() -> bool:
        return fired

    if not seconds or seconds <= 0:
        yield expired
        return

    def _handler(signum, frame):
        nonlocal fired
        fired = True
        if ckpt is not None:
            ckpt.request_interrupt()
        else:
            raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGALRM, _handler)
    except ValueError:  # not the main thread: no deadline support
        yield expired
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield expired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class ResumableRun:
    """One run as the CLI and a sweep point make it.

    Builds the :class:`Checkpointer` when ``directory`` is given, loads
    a ``procs``-worker run's cut with ``resume``
    (:meth:`Checkpointer.load_latest`), then the capture: resumed from
    the cut's sink offsets, else ``new_capture()``.  In that order, so a
    refused resume raises :class:`SnapshotError` having written nothing.
    """

    def __init__(self, new_capture, directory=None, *, every: int = 1,
                 marker=None, heartbeat=None, resume: bool = False,
                 required: bool = True, procs: int = 1) -> None:
        self.ckpt = payload = None
        if directory is not None:
            self.ckpt = Checkpointer(
                directory, every=every, marker=marker, heartbeat=heartbeat
            )
            if resume:
                payload = self.ckpt.load_latest(procs, required=required)
        if payload is not None and payload.get("obs") is not None:
            from repro.obs.capture import RunCapture

            self.capture = RunCapture.resume(payload["obs"])
        else:
            self.capture = new_capture()
        if self.ckpt is not None:
            self.ckpt.capture = self.capture

    def run(self, sim, kind: str, *, deadline: float | None = None, **run_args):
        """``sim.run(kind, ...)`` with the capture's hooks and the
        checkpointer, under :func:`wall_deadline` (afterwards
        ``self.deadline_expired()`` says whether it fired) and
        :func:`deferred_interrupts`.  The capture is finalized however
        the run ends; only a finished run writes its stats line."""
        capture, ckpt = self.capture, self.ckpt
        try:
            with wall_deadline(deadline, ckpt) as self.deadline_expired, \
                    deferred_interrupts(ckpt):
                result = sim.run(
                    kind, tracer=capture.tracer, metrics=capture.metrics,
                    spans=capture.spans, checkpointer=ckpt, **run_args,
                )
        except BaseException:
            capture.finalize(None)
            raise
        capture.finalize(result)
        return result
