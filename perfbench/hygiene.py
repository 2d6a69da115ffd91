"""Process hygiene: the benchmark owns, and cleans up, every process it starts.

Every child runs in a session of its own (``setsid``), one at a time.
When it has exited -- or its timeout has fired -- the session is scanned
in ``/proc``: a member that outlives the child by more than the grace
period is a leak, is killed, and fails the run.  ``/dev/shm/psm_*`` is
listed before the child starts and again after; a segment the run created
and left behind is a leak too and is unlinked.  Segments that were there
before are never touched.  The same sweep runs from ``atexit`` and from
the SIGINT/SIGTERM handlers, so no way out of the benchmark leaves a
process or a segment behind.

This module never imports ``multiprocessing``: ``shared_memory`` starts a
resource-tracker process in whoever uses it, and the benchmark driver must
have no child it did not mean to start.
"""

from __future__ import annotations

import atexit
import glob
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

SHM_GLOB = "/dev/shm/psm_*"
#: A session member still alive this long after the child exited is a
#: leak.  The grace exists because ``multiprocessing``'s resource tracker
#: exits on its own a few milliseconds after its parent, by design.
GRACE_S = 1.0
KILL_WAIT_S = 5.0


class Child(NamedTuple):
    """What one child cost and left behind."""

    wall_s: float  #: exec -> exit, as the parent's clock saw it
    cpu_s: float  #: user + system, the child and every descendant it reaped
    rss_mb: float  #: largest ru_maxrss of any process in that tree
    status: int  #: exit code, or minus the signal that ended it
    timed_out: bool
    stdout: str
    stderr: str
    leaks: tuple[str, ...]  #: survivors and shm segments the sweep removed

    @property
    def ok(self) -> bool:
        return self.status == 0 and not self.timed_out and not self.leaks


def _proc_stat(pid: int) -> tuple[str, str, int, int] | None:
    """``(comm, state, ppid, session)`` of a process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    comm = data[data.index("(") + 1 : data.rindex(")")]
    rest = data[data.rindex(")") + 2 :].split()
    return comm, rest[0], int(rest[1]), int(rest[3])


def _processes() -> list[tuple[int, str, str, int, int]]:
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = _proc_stat(int(name))
            if stat is not None:
                out.append((int(name), *stat))
    return out


def session_members(sid: int) -> list[tuple[int, str]]:
    """Live (non-zombie) processes of session ``sid`` as ``(pid, comm)``."""
    return [
        (pid, comm)
        for pid, comm, state, _, session in _processes()
        if session == sid and state != "Z"
    ]


def descendants() -> list[tuple[int, str]]:
    """Processes whose parent is this process, zombies included."""
    me = os.getpid()
    return [(pid, comm) for pid, comm, _, ppid, _ in _processes() if ppid == me]


def _wait_until_empty(sid: int, seconds: float) -> list[tuple[int, str]]:
    deadline = time.monotonic() + seconds
    while True:
        members = session_members(sid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(0.005)


class Sandbox:
    """Starts children one at a time and sweeps up after each."""

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        os.makedirs(scratch, exist_ok=True)
        self._sid: int | None = None  # the child in flight, if any
        self._shm_before: set[str] = set()
        atexit.register(self.sweep)
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, self._on_signal)

    def _on_signal(self, signum, _frame) -> None:
        self.sweep()
        for pid, _ in descendants():  # one that started as the signal landed
            _killpg(pid)
        sys.exit(128 + signum)

    def run(self, argv: list[str], *, env: dict, cwd: str, timeout_s: float) -> Child:
        """Run one child to completion in its own session and clean up."""
        assert self._sid is None, "children run one at a time"
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            self._shm_before = set(glob.glob(SHM_GLOB))
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=env, cwd=cwd, start_new_session=True,
            )
            self._sid = proc.pid
            fired = threading.Event()

            def on_timeout() -> None:
                fired.set()
                _killpg(proc.pid)

            timer = threading.Timer(timeout_s, on_timeout)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            leaks = self.sweep()
            out.seek(0)
            err.seek(0)
            return Child(
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                status=proc.returncode,
                timed_out=fired.is_set(),
                stdout=out.read().decode(errors="replace"),
                stderr=err.read().decode(errors="replace"),
                leaks=leaks,
            )

    def sweep(self) -> tuple[str, ...]:
        """Remove whatever the child in flight left; report what that was.

        Safe to re-enter: a signal that lands mid-sweep runs it again from
        the top, and every step is harmless the second time.
        """
        sid = self._sid
        if sid is None:
            return ()
        leaks = []
        if _proc_stat(sid) is not None:
            # Still our child: the benchmark itself is being torn down.
            _killpg(sid)
            try:
                os.waitpid(sid, 0)
            except ChildProcessError:
                pass
        survivors = _wait_until_empty(sid, GRACE_S)
        if survivors:
            leaks += [f"process {pid} ({comm})" for pid, comm in survivors]
            _killpg(sid)
            _wait_until_empty(sid, KILL_WAIT_S)
        for path in sorted(set(glob.glob(SHM_GLOB)) - self._shm_before):
            leaks.append(f"shm {path}")
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._sid = None
        return tuple(leaks)


def _killpg(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass
