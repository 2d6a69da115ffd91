"""Packet priority states.

A packet itself is a plain tuple in
:data:`repro.hotpotato.router.PACKET_FIELDS` order; its ``priority`` field
holds the int value of one of these states.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Priority"]


class Priority(IntEnum):
    """The four packet priority states (§1.2.5), lowest to highest."""

    SLEEPING = 0
    ACTIVE = 1
    EXCITED = 2
    RUNNING = 3

    @property
    def route_rank(self) -> int:
        """Routing order within a time step: higher priority routes first.

        The simulation staggers ROUTE event time stamps by priority
        (§3.1.4); rank 0 routes first.
        """
        return 3 - int(self)
