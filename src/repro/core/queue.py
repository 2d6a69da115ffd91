"""Pending-event priority queue with lazy deletion of cancelled entries.

Each processing element owns one :class:`PendingQueue`.  Cancellation (the
shared-memory analog of anti-message annihilation) marks the event's
``cancelled`` flag; the heap discards flagged entries when they surface.
This is O(1) per cancellation at the cost of dead entries in the heap —
the classic lazy-deletion trade, appropriate here because cancelled events
are a small fraction of traffic.

Layout: the heap stores flat ``(ts, origin, seq, serial, event)`` tuples
built at push time, so entry comparisons stay entirely in C (the unique
``Event.serial`` stamp means two entries always differ before the Event
slot is reached).  The serial breaks ties between a dead (cancelled)
entry and a live event that legitimately reuses the same key after a
rollback re-send, and travels with the event, so a re-push (rollback
requeue) sorts exactly where the first push did.  The entry is the
heap's alone — the event holds no reference back to it — so popping an
entry leaves nothing for the cyclic collector.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.core.event import Event
from repro.vt.time import EventKey

__all__ = ["PendingQueue", "make_pending_queue"]


class PendingQueue:
    """Min-heap of events ordered by :class:`~repro.vt.time.EventKey`."""

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        # Entries are (ts, origin, seq, serial, event); see module docstring.
        self._heap: list[tuple] = []
        # Count of non-cancelled entries, so __len__ is O(1) and exact.
        self._live = 0

    def push(self, event: Event) -> None:
        """Insert an event (must not already be queued)."""
        key = event.key
        heappush(self._heap, (key[0], key[1], key[2], event.serial, event))
        event.in_pending = True
        self._live += 1

    def extend(self, events) -> None:
        """Insert many events (none already queued) with one ``heapify``."""
        heap = self._heap
        n = len(heap)
        for event in events:
            key = event.key
            heap.append((key[0], key[1], key[2], event.serial, event))
            event.in_pending = True
        self._live += len(heap) - n
        heapify(heap)

    def drain(self) -> list[Event]:
        """Remove and return every live event, in no particular order."""
        events = []
        for entry in self._heap:
            event = entry[4]
            event.in_pending = False
            if not event.cancelled:
                events.append(event)
        self._heap.clear()
        self._live = 0
        return events

    def note_cancelled(self) -> None:
        """Record that a queued event was flagged cancelled externally.

        The caller flips ``event.cancelled``; the queue only adjusts its
        live count and lets the heap entry die lazily.
        """
        self._live -= 1

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][4].cancelled:
            heappop(heap)[4].in_pending = False

    def peek(self) -> Event | None:
        """The minimum live event, or ``None`` when empty."""
        self._drop_dead()
        return self._heap[0][4] if self._heap else None

    def peek_key(self) -> EventKey | None:
        """Key of the minimum live event, or ``None`` when empty."""
        ev = self.peek()
        return ev.key if ev is not None else None

    def pop(self) -> Event:
        """Remove and return the minimum live event."""
        self._drop_dead()
        if not self._heap:
            raise IndexError("pop from empty PendingQueue")
        ev = heappop(self._heap)[4]
        ev.in_pending = False
        self._live -= 1
        return ev

    def pop_below(self, limit_ts: float) -> Event | None:
        """Pop the minimum live event iff its ts is below ``limit_ts``.

        The engines' inner loops use this fused peek+pop: one dead-entry
        sweep and one heap access per executed event instead of two.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[4]
            if ev.cancelled:
                heappop(heap)
                ev.in_pending = False
                continue
            if entry[0] >= limit_ts:
                return None
            heappop(heap)
            ev.in_pending = False
            self._live -= 1
            return ev
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self):
        """Yield live events in arbitrary (heap) order — for inspection

        and invariant checks, not for scheduling.
        """
        return (e[4] for e in self._heap if not e[4].cancelled)


def make_pending_queue(name: str = "heap") -> PendingQueue:
    """The pending queue, for ``perfbench/probes.py``'s hold-model probe.

    The benchmark harness (which a PR may not edit) builds its queue as
    ``make_pending_queue(EngineConfig(...).queue)``; nothing in ``src/``
    calls this.  There is one structure, so there is nothing to choose.
    """
    if name != "heap":
        raise ValueError(f"the pending queue is the heap; got {name!r}")
    return PendingQueue()
