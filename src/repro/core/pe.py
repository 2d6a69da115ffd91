"""Processing elements: the units of (simulated) parallelism.

"ROSS divides up the simulation tasks among processors (PEs), which then
execute their assigned tasks optimistically ... each processor operates
semi-autonomously by assuming that the information that it currently has
is correct and complete" (§3.2.1).

Each PE owns a pending-event queue and executes events in local key order.
The executive (see :mod:`repro.core.optimistic`) schedules PEs round-robin,
giving each an *optimism batch*; because a PE may run ahead of its peers in
virtual time, messages from other PEs can arrive in its past — stragglers —
triggering rollbacks exactly as on real shared-memory hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.queue import PendingQueue
from repro.core.stats import PEStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimistic import TimeWarpKernel

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """One simulated processor: a pending queue plus cost accounting."""

    __slots__ = ("id", "kp_ids", "lp_count", "pending", "stats", "event_cost")

    def __init__(self, pe_id: int) -> None:
        self.id = pe_id
        self.kp_ids: list[int] = []
        self.lp_count = 0
        self.pending = PendingQueue()
        self.stats = PEStats()
        #: Per-event forward cost including this PE's cache factor;
        #: finalised by the kernel once the LP population is mapped.
        self.event_cost = 0.0

    def process_batch(
        self, kernel: "TimeWarpKernel", max_events: int, limit_ts: float
    ) -> int:
        """Execute up to ``max_events`` pending events below ``limit_ts``.

        ``limit_ts`` is the end-time barrier, optionally tightened to
        ``GVT + window`` by the executive's virtual-time optimism window.
        Returns the number of events executed.  Execution happens in local
        key order; sends during execution are delivered immediately by the
        kernel and may roll back other PEs (or other KPs on this PE).
        """
        done = 0
        pop_below = self.pending.pop_below
        execute = kernel.execute
        while done < max_events:
            ev = pop_below(limit_ts)
            if ev is None:
                break
            execute(self, ev)
            done += 1
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessingElement(id={self.id}, lps={self.lp_count})"
