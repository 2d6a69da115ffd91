"""Kernel processes: rollback containment groups.

"ROSS uses KPs which are groupings of LPs within a PE ... One purpose of a
KP is to contain rollbacks to a smaller sub-set of LPs within a PE.  This
is an improvement over rolling back all of the LPs simulated on a given PE.
Rolling back an LP that was unaffected by the past message is called a
false rollback." (§3.2.3 / §4.2.3)

Each KP keeps the processed-event list for *all* its LPs in execution
order.  A straggler or anti-message targeting any LP in the KP rolls the
whole KP back — events for sibling LPs included; those are counted as
*false rollback events*, the quantity that shrinks as the KP count grows
(Figs 7a–c).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.event import Event
from repro.core.stats import KPStats
from repro.vt.time import EventKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimistic import TimeWarpKernel

__all__ = ["KernelProcess"]


class KernelProcess:
    """One rollback-containment group of LPs on a PE."""

    __slots__ = ("id", "pe_id", "lp_ids", "processed", "stats")

    def __init__(self, kp_id: int, pe_id: int) -> None:
        self.id = kp_id
        self.pe_id = pe_id
        self.lp_ids: list[int] = []
        #: Processed events in execution order.  Invariant: sorted by key —
        #: the PE executes in key order between rollbacks, and a rollback
        #: removes a suffix, so re-execution resumes above the remaining tail.
        self.processed: list[Event] = []
        self.stats = KPStats()

    def needs_rollback(self, key: EventKey) -> bool:
        """True when an arriving event with ``key`` is a straggler here."""
        return bool(self.processed) and self.processed[-1].key > key

    def rollback_until(self, bound: EventKey, kernel: "TimeWarpKernel", trigger_lp: int) -> int:
        """Undo every processed event with key >= ``bound``.

        Undone events go back to the pending queue for re-execution (the
        one being annihilated by an anti-message is flagged cancelled by
        the caller afterwards).  Returns the number of events undone.
        """
        spans = kernel.spans
        t0 = spans.clock() if spans is not None else 0.0
        undone = 0
        processed = self.processed
        while processed and processed[-1].key >= bound:
            ev = processed.pop()
            kernel.undo_event(ev)
            if ev.dst != trigger_lp:
                self.stats.false_rollback_events += 1
            undone += 1
        if undone:
            self.stats.rollbacks += 1
            self.stats.events_rolled_back += undone
            if spans is not None:
                # One span per rollback episode, attributed to the KP
                # that unwound and the LP whose arrival triggered it.
                spans.record(
                    "rollback",
                    t0,
                    spans.clock(),
                    pe=self.pe_id,
                    kp=self.id,
                    lp=trigger_lp,
                    n=undone,
                )
        return undone

    def fossil_collect(self, gvt_ts: float, kernel: "TimeWarpKernel") -> int:
        """Commit and drop all processed events with ts < ``gvt_ts``.

        Events below GVT can never be rolled back; their journals are
        released and the model's ``commit`` hook fires exactly once per
        event, in execution order.
        """
        processed = self.processed
        # The list is key-sorted; find the first entry at or above GVT.
        lo, hi = 0, len(processed)
        while lo < hi:
            mid = (lo + hi) // 2
            if processed[mid].key.ts < gvt_ts:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return 0
        tracer = kernel.tracer
        pool = kernel.pool
        # Per-LP commit table: None for LPs inheriting the base no-op
        # commit (and None outright when no LP overrides it), so the
        # common case (e.g. PHOLD) skips the call entirely.
        commits = kernel._commit_of_lp
        if tracer is not None:
            release = pool.release
            for ev in processed[:lo]:
                if commits is not None:
                    cb = commits[ev.dst]
                    if cb is not None:
                        cb(ev)
                tracer.on_commit(ev)
                release(ev)
        else:
            # Recycle committed events.  Safe because a child's timestamp
            # strictly exceeds its parent's: any parent whose ``sent`` list
            # still references one of these events is itself below GVT and
            # commits (dropping that list) in this same pass; cancelled
            # events are never released.  The tracer copies fields on
            # commit, so recycling composes with tracing too.
            # ``EventPool.release`` is inlined: this loop runs once per
            # committed event — the single hottest non-model loop in a
            # low-rollback run.
            free = pool._free
            max_free = pool.max_free
            if commits is None:
                # No model code runs in this loop, so nothing can touch
                # the free list mid-pass: the capacity check collapses to
                # a countdown.
                room = max_free - len(free)
                append = free.append
                for ev in processed[:lo]:
                    if room > 0:
                        room -= 1
                        ev.data = ev.snapshot = ev.saved = ev.sent = None
                        append(ev)
            else:
                for ev in processed[:lo]:
                    cb = commits[ev.dst]
                    if cb is not None:
                        cb(ev)
                    if len(free) < max_free:
                        ev.data = ev.snapshot = ev.saved = ev.sent = None
                        free.append(ev)
        del processed[:lo]
        return lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelProcess(id={self.id}, pe={self.pe_id}, lps={len(self.lp_ids)})"
