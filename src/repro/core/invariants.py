"""Opt-in (--paranoid) kernel invariant checks, run at GVT epochs.

Each check either passes silently or raises
:class:`~repro.errors.InvariantViolation` with a diagnostic naming the
PE/KP/LP involved — the point is an *actionable* failure at the first
inconsistent epoch instead of a silently wrong figure three sweeps
later.  The checks are O(live events) per epoch, which is why they are
opt-in: enable them with ``EngineConfig(paranoid=True)`` (Time Warp
and conservative) / ``SequentialEngine(..., paranoid=True)`` or the
CLIs' ``--paranoid`` flag.

What is checked, per engine:

* **queue order** — every pending queue's lazy-deletion live count
  matches a recount, and (heap queues) the heap property holds.
* **GVT monotonicity** — Time Warp's GVT estimate (the conservative
  kernel's too: it runs the same loop) never moves backwards, and after fossil collection nothing pending or
  processed sits below it.
* **processed order** — each KP's processed list is key-sorted (the
  binary searches in rollback and fossil collection depend on it).
* **packet conservation** — delegated to the model when it offers a
  ``check_conservation(lps)`` hook (the hot-potato model does: packets
  delivered never exceed packets injected plus initially seeded).
"""

from __future__ import annotations

from repro.errors import InvariantViolation

__all__ = [
    "check_sequential",
    "check_optimistic",
]


def _check_queue(label: str, queue) -> None:
    """Live-count and (for heaps) heap-order consistency of one queue."""
    live = sum(1 for _ in iter(queue))
    tracked = len(queue)
    if live != tracked:
        raise InvariantViolation(
            f"{label}: pending-queue accounting drift: recounted {live} "
            f"live events but the queue tracks {tracked}"
        )
    heap = getattr(queue, "_heap", None)
    if heap is None:
        return
    for i in range(1, len(heap)):
        parent = (i - 1) >> 1
        if heap[i][:4] < heap[parent][:4]:
            ev = heap[i][4]
            raise InvariantViolation(
                f"{label}: heap order violated at index {i} "
                f"(event {ev.kind!r} ts={ev.key.ts} for LP {ev.dst})"
            )


def _check_conservation(model, lps, label: str) -> None:
    check = getattr(model, "check_conservation", None)
    if check is None:
        return
    problem = check(lps)
    if problem:
        raise InvariantViolation(f"{label}: packet conservation violated: {problem}")


def check_sequential(engine, now: float) -> None:
    """Sequential-engine epoch check (every ``seq_events`` commits of the
    per-event loop, every step end of a band program)."""
    _check_queue("sequential pending queue", engine.pending)
    _check_conservation(engine.model, engine.lps, f"at t={now}")


def check_optimistic(kernel, prev_gvt: float) -> None:
    """Time Warp epoch check, called right after fossil collection (a
    conservative kernel's window included: it runs Time Warp's loop)."""
    gvt = kernel.gvt
    if gvt < prev_gvt:
        raise InvariantViolation(
            f"GVT moved backwards: {prev_gvt} -> {gvt} "
            f"(algorithm {kernel.gvt_manager.name!r})"
        )
    if kernel._cancel_worklist:
        raise InvariantViolation(
            f"cancel worklist not drained at GVT epoch (={gvt}): "
            f"{len(kernel._cancel_worklist)} deferred cancellations pending"
        )
    for pe in kernel.pes:
        _check_queue(f"PE {pe.id}", pe.pending)
        for ev in pe.pending:
            if ev.key.ts < gvt:
                raise InvariantViolation(
                    f"PE {pe.id}: pending event {ev.kind!r} for LP {ev.dst} "
                    f"at ts={ev.key.ts} sits below GVT {gvt} — fossil "
                    "collection or the GVT estimate is wrong"
                )
    for kp in kernel.kps:
        processed = kp.processed
        for a, b in zip(processed, processed[1:]):
            if a.key > b.key:
                raise InvariantViolation(
                    f"KP {kp.id} (PE {kp.pe_id}): processed list out of key "
                    f"order — {a.key} before {b.key} (LPs {a.dst}, {b.dst}); "
                    "rollback bookkeeping is corrupt"
                )
        if processed and processed[0].key.ts < gvt:
            raise InvariantViolation(
                f"KP {kp.id} (PE {kp.pe_id}): uncommitted event for LP "
                f"{processed[0].dst} at ts={processed[0].key.ts} below GVT "
                f"{gvt} survived fossil collection"
            )
    _check_conservation(kernel.model, kernel.lps, f"at GVT {gvt}")
