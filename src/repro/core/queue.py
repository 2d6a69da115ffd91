"""Pending-event priority queue with lazy cancellation.

Each processing element owns one :class:`PendingQueue`.  Cancellation (the
shared-memory analog of anti-message annihilation) marks the event's
``cancelled`` flag; the heap discards flagged entries when they surface.
This is O(1) per cancellation at the cost of dead entries in the heap —
the classic lazy-deletion trade, appropriate here because cancelled events
are a small fraction of traffic.

Allocation-free layout: the heap stores each event's prebuilt
``Event.entry`` tuple ``(ts, origin, seq, serial, event)`` directly, so a
push allocates nothing and entry comparisons stay entirely in C (the
unique ``serial`` stamp means two entries always differ before the Event
slot is reached).  The serial breaks ties between a dead (cancelled)
entry and a live event that legitimately reuses the same key after a
rollback re-send — exactly the job the old per-push insertion counter
did, without the per-push tuple.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush

from repro.core.event import Event
from repro.vt.time import EventKey

__all__ = ["PendingQueue", "LadderQueue"]


class PendingQueue:
    """Min-heap of events ordered by :class:`~repro.vt.time.EventKey`."""

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        # Entries are Event.entry tuples; see module docstring.
        self._heap: list[tuple] = []
        # Count of non-cancelled entries, so __len__ is O(1) and exact.
        self._live = 0

    def push(self, event: Event) -> None:
        """Insert an event (must not already be queued)."""
        heappush(self._heap, event.entry)
        event.in_pending = True
        self._live += 1

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


class LadderQueue:
    """Ladder queue (Tang & Goh): O(1)-amortised pending-event structure.

    Three tiers, finest first:

    * ``bottom`` — a sorted list served through a cursor (``_pos``); its
      live suffix holds the smallest entries in the queue.
    * ``rungs`` — a stack of bucket arrays.  Each rung partitions a
      timestamp range into equal-width buckets; consuming a rung's next
      bucket either *sorts it directly* into ``bottom`` (small bucket) or
      *spawns a finer rung* from it (large bucket).  Spawning distributes
      N entries over N buckets, which is where the O(1) amortised bound
      comes from.
    * ``top`` — an unsorted pile of far-future entries.  Everything with
      ``ts`` strictly above ``_top_floor`` (the maximum timestamp ever
      moved down into the ladder) is appended here in O(1).

    Ordering is *exactly* the heap's: entries are the same prebuilt
    ``Event.entry`` tuples ``(ts, origin, seq, serial, event)``, buckets
    are split on ``ts`` alone (ties always land in the same bucket) and
    each bucket/pile is sorted by the full tuple before it is served, so
    the pop sequence — and therefore every committed sequence — is
    bit-identical to :class:`PendingQueue`'s.  Cancelled entries die
    lazily, also exactly like the heap: flagged via ``note_cancelled`` and
    dropped when a transfer or the bottom cursor reaches them.

    Invariant used by ``push`` routing: live timestamps are contiguous per
    tier — everything in ``bottom``'s live suffix < everything in any
    rung bucket at or past its cursor < everything in ``top`` — so an
    insert below an already-consumed region falls through to a sorted
    insert into ``bottom`` (rollback requeues and stragglers take this
    path; forward-progress sends land in ``top``).
    """

    __slots__ = (
        "_top",
        "_top_min",
        "_top_max",
        "_top_floor",
        "_rungs",
        "_bottom",
        "_pos",
        "_live",
    )

    #: Buckets/piles at or below this size are sorted directly instead of
    #: spawning a finer rung (the classic ladder-queue threshold).
    THRESH = 50
    #: Rung-stack depth cap: beyond this, buckets sort directly regardless
    #: of size (guards against pathological timestamp clustering).
    MAX_RUNGS = 8

    def __init__(self) -> None:
        self._top: list[tuple] = []
        self._top_min = 0.0
        self._top_max = 0.0
        #: Timestamps strictly above this route to ``top``; -inf until the
        #: first transfer out of ``top`` fixes the boundary.
        self._top_floor = float("-inf")
        #: Stack of rungs, coarsest first.  Each rung is a mutable list
        #: ``[start_ts, bucket_width, cur_index, buckets]``.
        self._rungs: list[list] = []
        self._bottom: list[tuple] = []
        self._pos = 0
        self._live = 0

    # -- insertion -----------------------------------------------------
    def push(self, event: Event) -> None:
        """Insert an event (must not already be queued)."""
        entry = event.entry
        event.in_pending = True
        self._live += 1
        ts = entry[0]
        top = self._top
        if ts > self._top_floor:
            if not top:
                self._top_min = self._top_max = ts
            elif ts < self._top_min:
                self._top_min = ts
            elif ts > self._top_max:
                self._top_max = ts
            top.append(entry)
            return
        for rung in self._rungs:
            start, width, cur, buckets = rung
            k = int((ts - start) / width)
            if k >= len(buckets):
                k = len(buckets) - 1
            if k >= cur:
                buckets[k].append(entry)
                return
        # Below every active region: keep the bottom's live suffix sorted.
        insort(self._bottom, entry, self._pos)

    def note_cancelled(self) -> None:
        """Record that a queued event was flagged cancelled externally."""
        self._live -= 1

    # -- transfer machinery --------------------------------------------
    def _spawn_rung(self, entries: list[tuple], lo: float, hi: float) -> None:
        """Partition ``entries`` (timestamps in [lo, hi]) into a new rung."""
        n = len(entries)
        width = (hi - lo) / n
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        last = n - 1
        for entry in entries:
            k = int((entry[0] - lo) / width)
            buckets[k if k < last else last].append(entry)
        self._rungs.append([lo, width, 0, buckets])

    def _fill_bottom(self) -> bool:
        """Refill the exhausted ``bottom`` from the rungs or ``top``.

        Returns False when the whole queue is empty of entries.  Dead
        (cancelled) entries are dropped during the transfer, so ``bottom``
        only ever holds entries that were live at fill time (they may
        still be cancelled afterwards; the cursor skips those).
        """
        self._bottom = []
        self._pos = 0
        rungs = self._rungs
        while True:
            while rungs:
                rung = rungs[-1]
                start, width, cur, buckets = rung
                n = len(buckets)
                while cur < n and not buckets[cur]:
                    cur += 1
                rung[2] = cur
                if cur >= n:
                    rungs.pop()
                    continue
                batch = buckets[cur]
                buckets[cur] = []
                rung[2] = cur + 1
                live = []
                for entry in batch:
                    ev = entry[4]
                    if ev.cancelled:
                        ev.in_pending = False
                    else:
                        live.append(entry)
                if not live:
                    continue
                if len(live) > self.THRESH and len(rungs) < self.MAX_RUNGS:
                    lo = min(e[0] for e in live)
                    hi = max(e[0] for e in live)
                    if hi > lo:
                        self._spawn_rung(live, lo, hi)
                        continue
                live.sort()
                self._bottom = live
                return True
            top = self._top
            if not top:
                return False
            live = []
            for entry in top:
                ev = entry[4]
                if ev.cancelled:
                    ev.in_pending = False
                else:
                    live.append(entry)
            del top[:]
            # The boundary moves up even if every entry was dead: anything
            # that was *in* top is at most _top_max, and future pushes at
            # or below it must route into the ladder to stay ordered.
            self._top_floor = self._top_max
            if not live:
                return False
            if len(live) > self.THRESH:
                lo = min(e[0] for e in live)
                hi = max(e[0] for e in live)
                if hi > lo:
                    self._spawn_rung(live, lo, hi)
                    continue
            live.sort()
            self._bottom = live
            return True

    def _advance(self) -> tuple | None:
        """Cursor of the first live entry in ``bottom``, filling as needed."""
        bottom = self._bottom
        pos = self._pos
        while True:
            n = len(bottom)
            while pos < n:
                entry = bottom[pos]
                if entry[4].cancelled:
                    entry[4].in_pending = False
                    pos += 1
                    continue
                self._pos = pos
                return entry
            if not self._fill_bottom():
                self._pos = len(self._bottom)
                return None
            bottom = self._bottom
            pos = self._pos

    # -- the PendingQueue interface ------------------------------------
    def peek(self) -> Event | None:
        """The minimum live event, or ``None`` when empty."""
        entry = self._advance()
        return entry[4] if entry is not None else None

    def peek_key(self) -> EventKey | None:
        """Key of the minimum live event, or ``None`` when empty."""
        ev = self.peek()
        return ev.key if ev is not None else None

    def pop(self) -> Event:
        """Remove and return the minimum live event."""
        entry = self._advance()
        if entry is None:
            raise IndexError("pop from empty LadderQueue")
        self._pos += 1
        self._live -= 1
        ev = entry[4]
        ev.in_pending = False
        return ev

    def pop_below(self, limit_ts: float) -> Event | None:
        """Pop the minimum live event iff its ts is below ``limit_ts``."""
        entry = self._advance()
        if entry is None or entry[0] >= limit_ts:
            return None
        self._pos += 1
        self._live -= 1
        ev = entry[4]
        ev.in_pending = False
        return ev

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self):
        """Yield live events in arbitrary order — for inspection and
        invariant checks, not for scheduling.
        """
        for entry in self._bottom[self._pos:]:
            if not entry[4].cancelled:
                yield entry[4]
        for rung in self._rungs:
            for bucket in rung[3][rung[2]:]:
                for entry in bucket:
                    if not entry[4].cancelled:
                        yield entry[4]
        for entry in self._top:
            if not entry[4].cancelled:
                yield entry[4]


def make_pending_queue(name: str):
    """Instantiate a pending-queue structure by config name.

    ``"heap"`` is the binary-heap default; ``"ladder"`` is the
    O(1)-amortised ladder queue (:class:`LadderQueue`).  Both order by
    the same flat entry tuples, so results never depend on the choice.
    """
    if name == "heap":
        return PendingQueue()
    if name == "ladder":
        return LadderQueue()
    raise ValueError(
        f"unknown queue structure {name!r}; choose 'heap' or 'ladder'"
    )
