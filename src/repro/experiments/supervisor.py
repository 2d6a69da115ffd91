"""Crash-tolerant sweep execution: child processes, watchdog, journal.

A long parameter sweep dies in practice for boring reasons — one point
wedges, the machine reboots, someone hits Ctrl-C at hour three.  The
:class:`Supervisor` makes the sweep itself restartable by running every
point through ``python -m repro.experiments.pointworker`` in a child
process and journaling its lifecycle:

* **Heartbeat watchdog** — the child's checkpointer touches a heartbeat
  file at every GVT / scheduler boundary.  A stale mtime means GVT has
  stopped advancing (deadlock, livelock, swap death); the parent
  SIGKILLs the child rather than hanging the sweep.
* **Bounded retry with backoff** — a point gets ``MAX_ATTEMPTS``
  attempts, sleeping ``BACKOFF_BASE * 2**(attempt-1)`` seconds between
  them.  Each retry resumes from the point's latest snapshot, so work is
  not lost.
* **No substitution** — a point that exhausts its retries raises
  :class:`PointFailure`; it is never recomputed on another engine, so
  every result a sweep serves was produced by the engine its spec names.
* **Journaled manifest** — ``manifest.jsonl`` in the output directory
  is append-only, one JSON object per lifecycle transition
  (``started`` / ``retry`` / ``done`` / ``failed``).
  ``python -m repro.experiments ... --resume DIR`` replays it: points
  journaled ``done`` are served from their pickled results without
  re-running; in-flight points restore from their latest checkpoint.
* **Resume integrity** — every point is a scenario (see
  :mod:`repro.experiments.pointworker`).  A spec naming a scenario file
  carries its compiled identity; a ``started`` record of an inline
  scenario naming a fault plan by path journals the identity beside it
  (the identity covers the plan's content).
  :func:`verify_resume_integrity` re-compiles every such
  scenario for *every* journaled point — including points whose results
  would be served from disk — and refuses the resume, naming the changed
  file, rather than silently mixing two experiments.  A manifest written
  in the older point-spec format is refused by name, and so is one that
  journals an engine ``fallback`` (a point recomputed on the conservative
  engine by an earlier version), before anything is served.

This kill-and-resume is the one way a sick run is restarted: the
in-process liveness watchdog (:mod:`repro.health`) only throttles a run
or stops it.

Points are identified by the SHA-256 of their canonical spec JSON, so
the same (experiment, parameters) pair maps to the same on-disk state
across invocations regardless of sweep order.

The watchdog, retry and checkpoint cadences are module constants: no
documented command, CI step or example has set one off its default.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ResumeIntegrityError
from repro.experiments.pointworker import check_point_spec, point_scenario

__all__ = [
    "Supervisor", "PointFailure", "point_id", "read_meta", "verify_resume_integrity",
]

#: Seconds without a heartbeat touch before a child is presumed wedged
#: and SIGKILLed.
HEARTBEAT_TIMEOUT = 60.0
#: Attempts per point before it fails.
MAX_ATTEMPTS = 3
#: The first retry sleeps this long; each further retry doubles it.
BACKOFF_BASE = 0.5
#: Snapshot cadence inside each child, in GVT / scheduler boundaries
#: (the spec's ``checkpoint_every``, so part of every point id).
POINT_CHECKPOINT_EVERY = 4
#: Child poll cadence, seconds.
POLL_INTERVAL = 0.2


def _files_read(scen: dict) -> str | None:
    """Which file a point's scenario reads, for messages; None if none."""
    if "path" in scen:
        return f"scenario {scen['path']!r}"
    if isinstance(scen.get("faults"), str):
        return f"fault plan {scen['faults']!r}"
    return None


class PointFailure(RuntimeError):
    """A sweep point failed permanently (retries exhausted)."""


def point_id(spec: dict) -> str:
    """Stable identity of a sweep point: hash of its canonical spec JSON."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _records(manifest_path: Path):
    """A manifest's JSON records, skipping a torn tail."""
    with manifest_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-append


def read_meta(out_dir: Path | str) -> dict | None:
    """The latest ``meta`` record of the sweep in ``out_dir``, if any
    (reads only: a missing manifest is ``None``)."""
    manifest_path = Path(out_dir) / "manifest.jsonl"
    if not manifest_path.exists():
        return None
    found = None
    for doc in _records(manifest_path):
        if doc.get("status") == "meta":
            found = doc
    return found


def verify_resume_integrity(out_dir: Path | str) -> int:
    """Re-compile every scenario the sweep in ``out_dir`` journals that
    reads a file; refuse drift (reads only, so it runs before a resumed
    sweep's supervisor exists).

    Walks *every* journaled record carrying a spec — including
    points already ``done``, whose results would otherwise be served
    from disk without ever touching their inputs again.  A spec in
    an older format is refused by name, and so is a ``fallback``
    record: an earlier version recomputed that point on the
    conservative engine, and serving its result would put a YAWNS
    run into a Time Warp table.  Each scenario that reads a
    file (a scenario file, or a fault plan named by path) is
    re-compiled and its identity
    (:meth:`~repro.scenarios.compile.CompiledScenario.scenario_hash`,
    which covers the plan's content) compared with the one journaled
    at launch.  Raises :class:`~repro.errors.ResumeIntegrityError`
    naming the first file that changed (or vanished); returns the
    number of distinct scenarios verified.
    """
    manifest_path = Path(out_dir) / "manifest.jsonl"
    if not manifest_path.exists():
        return 0
    #: canonical scenario -> (label, spec, identity journaled at
    #: launch); latest record wins.
    expected: dict[str, tuple[str, dict, str]] = {}
    for doc in _records(manifest_path):
        if doc.get("status") == "fallback":
            raise ResumeIntegrityError(
                f"sweep manifest {manifest_path}: point "
                f"{doc.get('point')} was rerun on the "
                f"{doc.get('engine')!r} engine by the removed engine "
                "fallback; its result is not the spec's engine's — "
                "refusing to resume (rerun the sweep)"
            )
        spec = doc.get("spec")
        if not isinstance(spec, dict):
            continue
        try:
            check_point_spec(spec)
        except ConfigurationError as exc:
            raise ResumeIntegrityError(
                f"sweep manifest {manifest_path}: {exc}"
            ) from None
        scen = spec["scenario"]
        label = _files_read(scen)
        want = scen.get("hash") or doc.get("scenario_hash")
        if label is not None and want:
            key = json.dumps(scen, sort_keys=True)
            expected[key] = (label, spec, want)
    for _, (label, spec, want) in sorted(expected.items()):
        try:
            got = point_scenario(spec).scenario_hash()
        except Exception as exc:
            raise ResumeIntegrityError(
                f"{label} is journaled in the sweep manifest but can no "
                f"longer be loaded ({exc}); refusing to resume"
            ) from exc
        if got != want:
            raise ResumeIntegrityError(
                f"{label} changed since the sweep was launched: its "
                f"scenario hashes to {got}, but the sweep manifest "
                f"recorded {want} — refusing to resume a different "
                "experiment"
            )
    return len(expected)


class Supervisor:
    """Run sweep points in supervised child processes (see module doc).

    With ``resume``, points the manifest in ``out_dir`` journals ``done``
    are served from disk instead of re-run.
    """

    #: The module each child runs (``python -m``): the point worker.
    worker_module = "repro.experiments.pointworker"

    def __init__(self, out_dir: Path | str, *, resume: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.resume = resume
        self.points_dir = self.out_dir / "points"
        self.points_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out_dir / "manifest.jsonl"
        #: point id -> final status, replayed from the manifest.
        self._status: dict[str, str] = {}
        if resume and self.manifest_path.exists():
            self._replay_manifest()
        self._manifest = self.manifest_path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    # manifest journal
    # ------------------------------------------------------------------
    def _replay_manifest(self) -> None:
        for doc in _records(self.manifest_path):
            pid = doc.get("point")
            if pid:
                self._status[pid] = doc.get("status", "")

    def _journal(self, **doc: Any) -> None:
        self._manifest.write(json.dumps(doc, sort_keys=True) + "\n")
        self._manifest.flush()
        os.fsync(self._manifest.fileno())
        if "point" in doc and "status" in doc:
            self._status[doc["point"]] = doc["status"]

    def journal_meta(self, **doc: Any) -> None:
        """Append a non-point record (e.g. the sweep's own parameters)."""
        self._journal(status="meta", **doc)

    def close(self) -> None:
        """Close the manifest journal (the supervisor is done)."""
        self._manifest.close()

    # ------------------------------------------------------------------
    # point execution
    # ------------------------------------------------------------------
    def run_point(self, spec: dict) -> dict:
        """Execute one point to completion; returns ``{"model_stats", "run"}``.

        Serves the cached result when resuming and the point is already
        ``done``; otherwise runs (or resumes) it under the watchdog.
        Raises :class:`PointFailure` when every attempt has been
        exhausted.
        """
        pid = point_id(spec)
        pdir = self.points_dir / pid
        result_path = pdir / "result.pkl"
        if self.resume and self._status.get(pid) == "done" and result_path.exists():
            with result_path.open("rb") as fh:
                return pickle.load(fh)
        pdir.mkdir(parents=True, exist_ok=True)

        result = self._attempts(spec, pid, pdir)
        if result is not None:
            return result
        self._journal(point=pid, status="failed", spec=spec)
        raise PointFailure(
            f"point {pid} failed after {MAX_ATTEMPTS} attempt(s)"
        )

    def _attempts(self, spec: dict, pid: str, pdir: Path) -> dict | None:
        """Try ``spec`` up to ``MAX_ATTEMPTS`` times; None when exhausted."""
        engine = spec["kind"]
        result_path = pdir / "result.pkl"
        ckpt_dir = pdir / f"ckpt_{engine}"
        spec_path = pdir / f"spec_{engine}.json"
        spec_path.write_text(json.dumps(spec, sort_keys=True, indent=2) + "\n")
        heartbeat = pdir / "heartbeat"

        extras = {}
        if "path" not in spec["scenario"] and _files_read(spec["scenario"]):
            # An inline scenario naming a fault plan by path: journal the
            # identity that covers the plan's content.
            extras["scenario_hash"] = point_scenario(spec).scenario_hash()
        self._journal(point=pid, status="started", engine=engine, spec=spec,
                      **extras)
        for attempt in range(1, MAX_ATTEMPTS + 1):
            outcome = self._run_child(spec_path, result_path, heartbeat, ckpt_dir)
            if outcome == "ok" and result_path.exists():
                self._journal(point=pid, status="done", engine=engine,
                              attempts=attempt)
                with result_path.open("rb") as fh:
                    return pickle.load(fh)
            if attempt < MAX_ATTEMPTS:
                delay = BACKOFF_BASE * 2 ** (attempt - 1)
                self._journal(point=pid, status="retry", engine=engine,
                              attempt=attempt, outcome=outcome, backoff=delay)
                time.sleep(delay)
        return None

    def _run_child(
        self, spec_path: Path, result_path: Path, heartbeat: Path, ckpt_dir: Path
    ) -> str:
        """One child attempt; returns ``"ok"``, ``"stall"`` or ``"exit:N"``."""
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        # Fresh heartbeat so a stale file from the last attempt cannot
        # trigger (or mask) a stall verdict.
        heartbeat.touch()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                self.worker_module,
                str(spec_path),
                str(result_path),
                str(heartbeat),
                str(ckpt_dir),
            ],
            env=env,
        )
        try:
            while True:
                try:
                    proc.wait(timeout=POLL_INTERVAL)
                    break
                except subprocess.TimeoutExpired:
                    pass
                try:
                    age = time.time() - heartbeat.stat().st_mtime
                except OSError:
                    age = 0.0
                if age > HEARTBEAT_TIMEOUT:
                    proc.kill()
                    proc.wait()
                    return "stall"
        except BaseException:
            # The sweep itself is being torn down (Ctrl-C, --deadline-
            # seconds, SystemExit).  Give the child the same deferred-
            # SIGINT chance to write its final snapshot that an
            # interactive Ctrl-C would, then make sure it is gone.
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
            raise
        return "ok" if proc.returncode == 0 else f"exit:{proc.returncode}"
