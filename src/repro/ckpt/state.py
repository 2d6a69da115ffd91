"""Engine-state capture and restore — the snapshot payload codec.

Each engine snapshots at a *quiescent boundary*:

* **sequential** — between events (every ``Checkpointer.seq_events``
  commits of the per-event loop, every step end of a band program): one
  heap of never-processed events, no journaling; a band-program
  snapshot's loop state records the step it resumes at.
* **optimistic** — a GVT round, after fossil collection *and* after the
  transport flush: everything below GVT is committed and gone, the
  cancellation worklist is drained, nothing is in flight (only a
  FaultyTransport's deliberately-held messages, and those are captured
  explicitly).
* **conservative** — a scheduler round: events commit as they execute,
  so only the pending queues, channel clocks and counters are live.

The payload is one plain dict pickled in a single dump (see
:mod:`repro.ckpt.snapshot` for why sharing matters).  Restore grafts the
payload onto a *freshly constructed* engine of the same configuration,
mutating the kernel-owned objects **in place** — the optimistic fast
paths compile at ``run()`` start and capture object identities
(``pe.pending``, ``kp.processed``, ``pool._free``, the GVT manager), so
replacing any of those objects would silently disconnect them.

Event serials: ``Event.serial`` stamps are process-local and only their
relative order matters.  On restore every event reachable from the
captured queues (transitively through ``sent`` journals and held
fault-transport messages) is re-stamped with a fresh serial, in
old-serial order — every tie-break between restored events is preserved
and no restored entry can ever collide with a new one.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from repro.core.event import Event, _next_serial
from repro.errors import SnapshotError
from repro.vt.time import EventKey

__all__ = ["capture_state", "restore_state"]

#: Payload-format sanity marker, distinct from the file-level version in
#: snapshot.py: bumping this invalidates snapshots whose payload layout
#: no longer matches this module.  2: hot-potato events carry packet
#: tuples on every engine (format-1 snapshots of a sequential or
#: conservative run hold dict payloads no router can execute).  3: an
#: event pickles one slot fewer and the optimistic counters two keys
#: fewer (cancellation is aggressive only; a format-2 event's state
#: would misalign).  4: a sequential hot-potato snapshot is taken at a
#: step end and resumes on the band program (a format-3 one may hold a
#: cut inside a band, which the program cannot enter).  5: a
#: conservative snapshot holds no channel clocks and no null-message
#: count (the engine runs YAWNS only).
PAYLOAD_FORMAT = 5


# ----------------------------------------------------------------------
# Shared sub-captures.
# ----------------------------------------------------------------------
def _capture_lps(lps) -> list:
    return [
        (lp.snapshot_state(), lp.send_seq, lp.rng.checkpoint(), lp._now)
        for lp in lps
    ]


def _restore_lps(lps, snaps) -> None:
    if len(lps) != len(snaps):
        raise SnapshotError(
            f"snapshot has {len(snaps)} LPs, engine has {len(lps)}"
        )
    for lp, (state, send_seq, rng_ckpt, now) in zip(lps, snaps):
        lp.restore_state(state)
        lp.send_seq = send_seq
        lp.rng.restore(rng_ckpt)
        lp._now = now


def _queue_events(queue) -> list[Event]:
    """Live events of one pending queue, in entry (pop) order.

    Dead (cancelled) heap entries are dropped: lazy deletion only ever
    skips them, ``_cancel`` on an already-cancelled event is a no-op,
    and nothing else can resurrect them — omitting them is exactly what
    the queue's own sweep would eventually do.
    """
    return sorted(iter(queue), key=lambda ev: (ev.key, ev.serial))


def _restore_queue(queue, events) -> None:
    for ev in events:
        queue.push(ev)


def _restamp_events(roots) -> None:
    """Give every reachable event a fresh serial, preserving old order."""
    seen: dict[int, Event] = {}
    stack = list(roots)
    while stack:
        ev = stack.pop()
        if id(ev) in seen:
            continue
        seen[id(ev)] = ev
        if ev.sent:
            stack.extend(ev.sent)
    for ev in sorted(seen.values(), key=lambda ev: ev.serial):
        ev.serial = _next_serial()
        ev.in_pending = False


def _copy_dataclass(src, dst) -> None:
    for f in dataclass_fields(src):
        setattr(dst, f.name, getattr(src, f.name))


def _capture_pool(pool):
    return {"free": len(pool._free), "hits": pool.hits, "allocs": pool.allocs}


def _restore_pool(pool, snap) -> None:
    free = pool._free
    free.clear()
    blank_key = EventKey(0.0, 0, 0)
    for _ in range(snap["free"]):
        ev = Event(blank_key, 0, "")
        # Match EventPool.release's parked-event contract exactly.
        ev.data = None  # type: ignore[assignment]
        free.append(ev)
    pool.hits = snap["hits"]
    pool.allocs = snap["allocs"]


def _capture_gvt(manager):
    return (manager.name, manager.last)


def _restore_gvt(manager, snap) -> None:
    # Snapshots written when the in-process kernel still had a "mattern"
    # or "incremental" manager name it here; their epoch counters and
    # floors have nothing to be restored into.
    if snap[0] != manager.name:
        raise SnapshotError(
            f"snapshot used GVT algorithm {snap[0]!r}, engine uses "
            f"{manager.name!r}"
        )
    manager.last = snap[1]


def _capture_throttle(throttle):
    if throttle is None:
        return None
    return (
        throttle.factor,
        throttle.adjustments,
        list(throttle.history),
        throttle._observations,
    )


def _restore_throttle(throttle, snap) -> None:
    if (throttle is None) != (snap is None):
        raise SnapshotError("adaptive-throttle configuration differs from snapshot")
    if throttle is None:
        return
    throttle.factor, throttle.adjustments, history, throttle._observations = snap
    throttle.history[:] = history


def _capture_faults(faults):
    if faults is None:
        return None
    snap = {"stall_rounds": faults.stall_rounds, "transport": None}
    ft = faults.transport
    if ft is not None:
        snap["transport"] = {
            "rng": ft._rng.checkpoint(),
            "dropped": ft.dropped,
            "duplicated": ft.duplicated,
            "delayed": ft.delayed,
            "annihilated_held": ft.annihilated_held,
            "held": [list(item) for item in ft._held],
        }
    return snap


def _restore_faults(faults, snap) -> None:
    if (faults is None) != (snap is None):
        raise SnapshotError(
            "fault-driver configuration differs from snapshot (attach the "
            "same FaultPlan before the checkpointer)"
        )
    if faults is None:
        return
    faults.stall_rounds = snap["stall_rounds"]
    ft = faults.transport
    tsnap = snap["transport"]
    if (ft is None) != (tsnap is None):
        raise SnapshotError("faulty-transport configuration differs from snapshot")
    if ft is None:
        return
    ft._rng.restore(tsnap["rng"])
    ft.dropped = tsnap["dropped"]
    ft.duplicated = tsnap["duplicated"]
    ft.delayed = tsnap["delayed"]
    ft.annihilated_held = tsnap["annihilated_held"]
    ft._held = [list(item) for item in tsnap["held"]]


def _held_events(faults_snap) -> list[Event]:
    if not faults_snap or not faults_snap.get("transport"):
        return []
    return [item[0] for item in faults_snap["transport"]["held"]]


# ----------------------------------------------------------------------
# Sequential engine.
# ----------------------------------------------------------------------
def _capture_sequential(engine, loop) -> dict:
    return {
        "format": PAYLOAD_FORMAT,
        "kind": "sequential",
        "loop": dict(loop or {}),
        "sends": engine.sends,
        "lps": _capture_lps(engine.lps),
        "pending": _queue_events(engine.pending),
        "pool": _capture_pool(engine.pool),
        "model": engine.model.checkpoint_state(),
    }


def _restore_sequential(engine, payload) -> None:
    _restore_lps(engine.lps, payload["lps"])
    events = payload["pending"]
    _restamp_events(events)
    _restore_queue(engine.pending, events)
    engine.sends = payload["sends"]
    _restore_pool(engine.pool, payload["pool"])
    engine.model.restore_checkpoint(payload["model"])
    engine._resume = dict(payload["loop"])


# ----------------------------------------------------------------------
# Optimistic (Time Warp) engine.
# ----------------------------------------------------------------------
def _capture_optimistic(kernel, loop) -> dict:
    if kernel._cancel_worklist:
        raise SnapshotError("cancel worklist not drained at checkpoint boundary")
    if kernel._current_event is not None:
        raise SnapshotError("cannot snapshot mid-event")
    faults = kernel.faults
    transport = kernel.transport
    inner = (
        transport.inner
        if faults is not None and faults.transport is transport
        else transport
    )
    if getattr(inner, "in_flight_count", lambda: 0)():
        raise SnapshotError("transport not drained at checkpoint boundary")
    return {
        "format": PAYLOAD_FORMAT,
        "kind": "optimistic",
        "loop": dict(loop or {}),
        "gvt": kernel.gvt,
        "counters": {
            "makespan_units": kernel.makespan_units,
            "fossil_collected": kernel.fossil_collected,
            "gvt_rounds": kernel.gvt_rounds,
            "cancelled_direct": kernel.cancelled_direct,
            "cancelled_via_rollback": kernel.cancelled_via_rollback,
            "peak_pending": kernel.peak_pending,
            "peak_processed": kernel.peak_processed,
        },
        "lps": _capture_lps(kernel.lps),
        "pending": [_queue_events(pe.pending) for pe in kernel.pes],
        "pe_stats": [pe.stats for pe in kernel.pes],
        "processed": [list(kp.processed) for kp in kernel.kps],
        "kp_stats": [kp.stats for kp in kernel.kps],
        "gvt_manager": _capture_gvt(kernel.gvt_manager),
        "throttle": _capture_throttle(kernel.throttle),
        "pool": _capture_pool(kernel.pool),
        "faults": _capture_faults(faults),
        "model": kernel.model.checkpoint_state(),
    }


def _restore_optimistic(kernel, payload) -> None:
    if len(payload["pending"]) != len(kernel.pes):
        raise SnapshotError(
            f"snapshot has {len(payload['pending'])} PEs, engine has "
            f"{len(kernel.pes)}"
        )
    if len(payload["processed"]) != len(kernel.kps):
        raise SnapshotError(
            f"snapshot has {len(payload['processed'])} KPs, engine has "
            f"{len(kernel.kps)}"
        )
    _restore_lps(kernel.lps, payload["lps"])
    # Re-stamp every reachable event before any queue sees one: pending,
    # processed journals, and fault-transport held messages share events.
    roots: list[Event] = []
    for events in payload["pending"]:
        roots.extend(events)
    for events in payload["processed"]:
        roots.extend(events)
    roots.extend(_held_events(payload["faults"]))
    _restamp_events(roots)
    for pe, events, stats in zip(kernel.pes, payload["pending"], payload["pe_stats"]):
        _restore_queue(pe.pending, events)
        _copy_dataclass(stats, pe.stats)
    for kp, events, stats in zip(kernel.kps, payload["processed"], payload["kp_stats"]):
        kp.processed[:] = events
        _copy_dataclass(stats, kp.stats)
    for name, value in payload["counters"].items():
        setattr(kernel, name, value)
    kernel.gvt = payload["gvt"]
    _restore_gvt(kernel.gvt_manager, payload["gvt_manager"])
    _restore_throttle(kernel.throttle, payload["throttle"])
    _restore_pool(kernel.pool, payload["pool"])
    _restore_faults(kernel.faults, payload["faults"])
    kernel.model.restore_checkpoint(payload["model"])
    kernel._resume = dict(payload["loop"])


# ----------------------------------------------------------------------
# Conservative engine.
# ----------------------------------------------------------------------
def _capture_conservative(kernel, loop) -> dict:
    return {
        "format": PAYLOAD_FORMAT,
        "kind": "conservative",
        "loop": dict(loop or {}),
        "counters": {
            "real_messages": kernel.real_messages,
            "local_sends": kernel.local_sends,
            "rounds": kernel.rounds,
            "makespan_units": kernel.makespan_units,
        },
        "lps": _capture_lps(kernel.lps),
        "pes": [
            {
                "pending": _queue_events(pe.pending),
                "processed": pe.processed,
                "busy": pe.busy,
            }
            for pe in kernel.pes
        ],
        "pool": _capture_pool(kernel.pool),
        "faults": (
            {"stall_rounds": kernel.faults.stall_rounds}
            if kernel.faults is not None
            else None
        ),
        "model": kernel.model.checkpoint_state(),
    }


def _restore_conservative(kernel, payload) -> None:
    if len(payload["pes"]) != len(kernel.pes):
        raise SnapshotError(
            f"snapshot has {len(payload['pes'])} PEs, engine has "
            f"{len(kernel.pes)}"
        )
    _restore_lps(kernel.lps, payload["lps"])
    roots: list[Event] = []
    for snap in payload["pes"]:
        roots.extend(snap["pending"])
    _restamp_events(roots)
    for pe, snap in zip(kernel.pes, payload["pes"]):
        _restore_queue(pe.pending, snap["pending"])
        pe.processed = snap["processed"]
        pe.busy = snap["busy"]
    for name, value in payload["counters"].items():
        setattr(kernel, name, value)
    _restore_pool(kernel.pool, payload["pool"])
    fsnap = payload["faults"]
    if (kernel.faults is None) != (fsnap is None):
        raise SnapshotError(
            "fault-driver configuration differs from snapshot (attach the "
            "same FaultPlan before the checkpointer)"
        )
    if kernel.faults is not None:
        kernel.faults.stall_rounds = fsnap["stall_rounds"]
    kernel.model.restore_checkpoint(payload["model"])
    kernel._bootstrapping = False
    kernel._resume = dict(payload["loop"])


# ----------------------------------------------------------------------
# Dispatch.
# ----------------------------------------------------------------------
def _engine_kind(engine) -> str:
    # The engine's own ``Executor.kind`` tag, so a snapshot never imports
    # the kernels the run does not use (nor, in a worker, after fork).
    kind = getattr(engine, "kind", None)
    if kind not in _CAPTURE:
        raise SnapshotError(
            f"cannot checkpoint engine of type {type(engine).__name__}"
        )
    return kind


_CAPTURE = {
    "sequential": _capture_sequential,
    "optimistic": _capture_optimistic,
    "conservative": _capture_conservative,
}
_RESTORE = {
    "sequential": _restore_sequential,
    "optimistic": _restore_optimistic,
    "conservative": _restore_conservative,
}


def capture_state(engine, loop=None) -> dict:
    """Capture ``engine``'s full simulation state as a payload dict.

    ``loop`` carries the engine run loop's local variables (round
    counters, effective batch/window) so :meth:`run` can resume them.
    """
    return _CAPTURE[_engine_kind(engine)](engine, loop)


def restore_state(engine, payload) -> None:
    """Graft a captured payload onto a freshly built ``engine``.

    The engine must have been constructed from the same model/config as
    the captured one (the :class:`~repro.ckpt.checkpoint.Checkpointer`
    verifies the config marker before calling this), with any fault
    driver already attached.  Call before ``run()``.
    """
    kind = _engine_kind(engine)
    if payload.get("format") != PAYLOAD_FORMAT:
        raise SnapshotError(
            f"snapshot payload format {payload.get('format')!r} is not "
            f"this version's format {PAYLOAD_FORMAT}; it was written by "
            "an incompatible version and cannot be resumed"
        )
    if payload["kind"] != kind:
        raise SnapshotError(
            f"snapshot was taken from a {payload['kind']} engine, cannot "
            f"restore into a {kind} engine"
        )
    _RESTORE[kind](engine, payload)
