"""Events — the messages that drive the simulation.

"The LPs communicate with each other within the simulation via messages.
Each message represents an event in the system." (§3.1.2).  On ROSS's
shared-memory architecture, sending a message "merely involves assigning
ownership of the message's memory location from the source LP to the
destination LP"; our in-process kernel does the same thing with object
references, so anti-messages are realised by *direct cancellation*: the
sender keeps a reference to every event it created and, on rollback, flips
the event's ``cancelled`` flag (if unprocessed) or triggers a secondary
rollback (if processed).

An event carries:

* its total-order key ``(recv_ts, origin_lp, origin_seq)``,
* model payload (``kind`` tag + ``data`` — the ROSS message struct: whatever
  the model puts there, treated as read-only; an empty dict when none is
  given, a mapping in most models, a flat tuple or a bare int in the
  hot-potato model),
* a ``saved`` mapping where the forward handler stashes whatever its reverse
  handler needs (ROSS models write ``M->Saved_*`` fields the same way), and
* kernel journaling used by rollback: the events it sent, the RNG draws it
  made, and the sender sequence number to restore.

Hot-path layout: the pending queues hold *heap entries*
``(ts, origin, seq, serial, event)``, built where an event is pushed; the
event itself carries only ``serial``, a process-wide monotone stamp that
breaks ties between distinct events sharing a key (a cancelled original
and its rollback re-send) without ever comparing Event objects, and that
a re-push of the *same* event reuses.  An event never references an entry
that references it, so no event is part of a reference cycle: whatever
drops the last reference to one — a heap pop, a cleared ``sent`` list —
frees it on the spot, which is what lets the engines pause the cyclic
collector while they run (see ``Executor._collector_paused``).

Events are recycled: :class:`EventPool` keeps a free list refilled by
fossil collection (see ``TimeWarpKernel.fossil_collect``), so steady-state
execution constructs no new Event objects at all.  ``Event.__slots__``
makes the reset cheap; pooling is observationally invisible because
:meth:`EventPool.acquire` restores every field to its freshly-constructed
state (the determinism suite asserts this).
"""

from __future__ import annotations

from itertools import count
from typing import Any

from repro.vt.time import EventKey

__all__ = ["Event", "EventPool"]

#: Process-wide entry serial; only its *relative order* matters, and only
#: between two live entries with identical EventKeys, so sharing one
#: counter across kernels cannot affect results.
_next_serial = count().__next__


class Event:
    """A scheduled (or processed) simulation event.

    Model code treats events as read-only inputs except for the ``saved``
    dict.  Kernel code owns the bookkeeping fields.
    """

    __slots__ = (
        "key",
        "dst",
        "kind",
        "data",
        "saved",
        "sent",
        "rng_draws",
        "prev_send_seq",
        "snapshot",
        "processed",
        "cancelled",
        "in_pending",
        "color",
        "serial",
    )

    def __init__(
        self,
        key: EventKey,
        dst: int,
        kind: str,
        data: Any = None,
    ) -> None:
        self.key = key
        self.dst = dst
        self.kind = kind
        self.data: Any = data if data is not None else {}
        #: Forward handlers stash reverse-computation state here.
        self.saved: dict[str, Any] = {}
        #: Events created while processing this one (for cancellation).
        self.sent: list[Event] = []
        #: RNG draws the destination LP made while processing this event.
        self.rng_draws: int = 0
        #: Destination LP's send-sequence counter before processing.
        self.prev_send_seq: int = 0
        #: Optional LP-state snapshot (state-saving rollback strategy).
        self.snapshot: Any = None
        self.processed: bool = False
        self.cancelled: bool = False
        #: True while the event sits in a PE's pending queue; lets the
        #: kernel keep the queue's live count exact on cancellation.
        self.in_pending: bool = False
        #: Ring-frame uid of a send that crossed to another worker process
        #: (0 otherwise), so a later anti frame names exactly that copy;
        #: see repro.mp.transport.
        self.color: int = 0
        #: Heap-entry tie-break (see module docstring).
        self.serial = _next_serial()

    # Convenience accessors -------------------------------------------------
    @property
    def ts(self) -> float:
        """Receive timestamp in virtual time."""
        return self.key.ts

    @property
    def origin(self) -> int:
        """Id of the LP that created this event."""
        return self.key.origin

    def reset_journal(self) -> None:
        """Clear kernel journaling before (re-)execution."""
        self.sent.clear()
        self.rng_draws = 0
        self.snapshot = None

    # Checkpoint support ----------------------------------------------------
    # The pickled state is every slot but ``in_pending`` (a restored event
    # is in no queue yet), as a flat tuple in slot order.  The serial is
    # only meaningful relative to other events in the same snapshot;
    # repro.ckpt re-stamps restored events with fresh process-local
    # serials in old serial order, preserving every tie-break (see
    # ckpt/state.py).
    _STATE = tuple(name for name in __slots__ if name != "in_pending")

    def __getstate__(self):
        return tuple([getattr(self, name) for name in self._STATE])

    def __setstate__(self, state) -> None:
        for name, value in zip(self._STATE, state):
            setattr(self, name, value)
        self.in_pending = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "P" if self.processed else "-"
        flags += "C" if self.cancelled else "-"
        return f"Event({self.kind} {self.key} ->lp{self.dst} [{flags}])"


class EventPool:
    """Per-kernel free list of recycled events.

    ``acquire`` matches the :class:`Event` constructor signature so an
    LP's allocator can be either the class or a bound pool method.  Only
    the kernel may ``release`` events, and only ones nothing can reference
    any more — in practice events being dropped by fossil collection,
    whose parents were fossil-collected no later (a child's timestamp
    strictly exceeds its parent's, so both sit below GVT together).
    """

    __slots__ = ("_free", "max_free", "hits", "allocs")

    def __init__(self, max_free: int = 1 << 20) -> None:
        self._free: list[Event] = []
        #: Cap on retained free events (a backstop against a pathological
        #: burst permanently pinning memory; 2^20 events ≈ a few hundred
        #: MB worst case, far above any steady-state working set).
        self.max_free = max_free
        #: Acquires served from the free list.
        self.hits = 0
        #: Acquires that had to construct a new Event.
        self.allocs = 0

    def acquire(
        self,
        key: EventKey,
        dst: int,
        kind: str,
        data: Any = None,
    ) -> Event:
        """Return a ready-to-use event (recycled when possible).

        ``release`` already cleared ``saved``/``sent``/``snapshot`` and
        only ever pools non-cancelled, non-pending events, so those five
        fields are at construction state; everything
        else is reset here, including a fresh serial, so a pooled event
        is indistinguishable from a new one.  (The Time Warp kernel's
        fused send inlines this branch.)
        """
        free = self._free
        if free:
            self.hits += 1
            ev = free.pop()
            ev.key = key
            ev.dst = dst
            ev.kind = kind
            ev.data = data if data is not None else {}
            ev.rng_draws = 0
            ev.prev_send_seq = 0
            ev.processed = False
            ev.color = 0
            ev.serial = _next_serial()
            return ev
        self.allocs += 1
        return Event(key, dst, kind, data)

    def release(self, event: Event) -> None:
        """Return a dead event to the free list.

        The caller guarantees no live reference to it remains, and that it
        is neither cancelled nor sitting in a pending queue (commit-time
        recycling satisfies both).  Payload, journal and snapshot
        references are dropped eagerly so parked events never keep model
        data alive; :meth:`acquire` relies on exactly this reset.
        """
        if len(self._free) < self.max_free:
            event.data = None  # type: ignore[assignment]
            event.snapshot = None
            event.saved.clear()
            event.sent.clear()
            self._free.append(event)

    def __len__(self) -> int:
        return len(self._free)

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served without allocation."""
        total = self.hits + self.allocs
        return self.hits / total if total else 0.0
