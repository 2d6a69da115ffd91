"""Processing elements: the units of (simulated) parallelism.

"ROSS divides up the simulation tasks among processors (PEs), which then
execute their assigned tasks optimistically ... each processor operates
semi-autonomously by assuming that the information that it currently has
is correct and complete" (§3.2.1).

Each PE owns a pending-event queue and executes events in local key order.
The executive (see :mod:`repro.core.optimistic`) schedules PEs round-robin,
giving each an *optimism batch* (the kernel's compiled batch loop over
this PE's queue); because a PE may run ahead of its peers in virtual time,
messages from other PEs can arrive in its past — stragglers — triggering
rollbacks exactly as on real shared-memory hardware.
"""

from __future__ import annotations

from repro.core.queue import PendingQueue
from repro.core.stats import PEStats

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessingElement(id={self.id}, lps={self.lp_count})"
