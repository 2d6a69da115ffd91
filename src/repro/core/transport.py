"""The in-process message transport between PEs.

On ROSS's shared-memory target, a send "merely involves assigning ownership
of the message's memory location from the source LP to the destination LP"
(§3.1.2) — i.e. delivery is immediate.  :class:`ImmediateTransport` models
that, and it is what every in-process Time Warp kernel is built with.

Two things may take its place, both behind the same four-method surface
(``deliver`` / ``flush`` / ``min_in_flight_ts`` / ``in_flight_count``): a
:class:`~repro.faults.transport.FaultyTransport` wrapped around it when a
fault plan perturbs cross-PE delivery, and a ``--procs`` worker's
:class:`~repro.mp.transport.RingTransport`, where cross-worker messages
really are in flight.  Either one clears the kernel's ``_direct`` flag.
"""

from __future__ import annotations

from typing import Callable

from repro.core.event import Event
from repro.vt.time import TIME_HORIZON

__all__ = ["ImmediateTransport"]


class ImmediateTransport:
    """Deliver every message instantly (shared-memory pointer handoff)."""

    name = "immediate"

    def __init__(self, receive: Callable[[Event], None]) -> None:
        self._receive = receive

    def deliver(self, event: Event, src_pe: int, dst_pe: int) -> None:
        """Hand the event to the destination PE right away."""
        self._receive(event)

    def flush(self) -> int:
        """No-op; immediate transport never holds messages."""
        return 0

    def min_in_flight_ts(self) -> float:
        """No in-flight messages ever exist."""
        return TIME_HORIZON

    def in_flight_count(self) -> int:
        """Messages currently in transit (always 0 here)."""
        return 0
