"""Global Virtual Time computation.

GVT is the floor of virtual time: no event below it can ever be rolled
back, so storage below it can be fossil-collected and statistics committed.
ROSS "uses Fujimoto's Global Virtual Time (GVT) algorithm for process
synchronization ... rather than a less efficient distributed GVT algorithm
such as Mattern's" (§3.1.2), which it can do because shared-memory delivery
is instantaneous.  The in-process kernel does the same:
:class:`SynchronousGVT` is the minimum, taken at a round barrier, over all
PEs' earliest unprocessed event and anything the transport still holds
(only a fault-wrapped transport ever holds anything).  Exact, but requires
the barrier.

Where messages genuinely are in flight when the estimate is taken — the
shared-memory rings between ``--procs`` workers — the barrier is not
available and a Mattern-style counting token ring computes GVT instead;
that algorithm lives with the rings, in :mod:`repro.mp.gvt`.

The safety property tested in the suite: the returned value never exceeds
the true minimum unprocessed timestamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimistic import TimeWarpKernel

__all__ = ["SynchronousGVT"]


class SynchronousGVT:
    """Barrier GVT: exact minimum over pending queues and the transport."""

    #: Recorded in snapshots; a restore refuses a payload that names
    #: another algorithm (written before the in-process kernel had one).
    name = "synchronous"

    def __init__(self) -> None:
        self.last = 0.0

    def estimate(self, kernel: "TimeWarpKernel") -> float:
        """Exact GVT; call only at a round barrier."""
        m = kernel.transport.min_in_flight_ts()
        for pe in kernel.pes:
            key = pe.pending.peek_key()
            if key is not None and key.ts < m:
                m = key.ts
        self.last = m
        return m
