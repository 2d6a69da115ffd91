"""Transport-layer fault injection for the optimistic engine.

:class:`FaultyTransport` wraps the kernel's
:class:`~repro.core.transport.ImmediateTransport` and perturbs **cross-PE**
message delivery according to the plan's rates:

* **drop** — the message is "lost" and retransmitted after a timeout
  (``2 × delay_rounds`` scheduler rounds).  Time Warp requires reliable
  delivery — a truly lost event would change the simulation's result —
  so, as in real distributed Time Warp systems, a drop is a reliable
  transport's retransmission, which the receiver experiences as a
  long-delayed (usually straggler) message.
* **duplicate** — the message is delivered normally *and* a ghost copy
  with the same event key arrives ``delay_rounds`` rounds later.  The
  ghost is born cancelled, so it can never execute — but its arrival
  goes through the kernel's full straggler machinery and can trigger a
  genuine rollback before the pending queue annihilates it.
* **delay** — the message is held for ``delay_rounds`` rounds, then
  delivered normally.

All three are *semantics-preserving*: they reorder and re-time event
arrival, which Time Warp must tolerate by design, but never change which
events ultimately commit.  The acceptance check exploits exactly this —
a faulted optimistic run must still commit the sequential sequence.

Draws come from a dedicated forward-only stream derived from the plan
seed (stream id :data:`~repro.faults.plan.TRANSPORT_STREAM`), so the
traffic RNG is untouched; deliveries happen in deterministic kernel
order, so the same plan + seed always injects the same faults.

GVT safety: held messages and ghosts are reported through
``min_in_flight_ts``, which the kernel's barrier GVT consults, so no
estimate can pass an event that is still going to arrive — the
no-straggler-below-GVT invariant holds under injection.

Installing the wrapper clears the kernel's ``_direct`` flag
(:meth:`repro.faults.injector.EngineFaults.install`): the kernel
therefore keeps its generic ``_emit``/``_receive`` paths and never
compiles the fused fast paths around the wrapper.  That is the whole
fast-path story — with no plan attached nothing is wrapped, the flag
stays set, and the fused paths compile exactly as without this module.
"""

from __future__ import annotations

from repro.core.event import Event
from repro.faults.plan import TRANSPORT_STREAM, FaultPlan
from repro.rng.streams import ReversibleStream, derive_seed

__all__ = ["FaultyTransport"]


class FaultyTransport:
    """Wrap ``inner`` and drop/duplicate/delay cross-PE deliveries."""

    name = "faulty"

    def __init__(self, inner, plan: FaultPlan, kernel) -> None:
        self.inner = inner
        self.plan = plan
        self._kernel = kernel
        self._rng = ReversibleStream(derive_seed(plan.seed, TRANSPORT_STREAM), 0)
        self._drop = plan.drop_rate
        self._dup_edge = plan.drop_rate + plan.dup_rate
        self._delay_edge = plan.drop_rate + plan.dup_rate + plan.delay_rate
        self._delay_hold = plan.delay_rounds
        self._drop_hold = 2 * plan.delay_rounds  # retransmit timeout
        #: Held entries: ``[event, rounds_until_release, is_ghost]``.
        self._held: list[list] = []
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.annihilated_held = 0

    # ------------------------------------------------------------------
    def deliver(self, event: Event, src_pe: int, dst_pe: int) -> None:
        """Deliver, possibly injecting a fault (cross-PE messages only)."""
        if src_pe == dst_pe:
            self.inner.deliver(event, src_pe, dst_pe)
            return
        u = self._rng.unif()
        if u < self._drop:
            self.dropped += 1
            self._held.append([event, self._drop_hold, False])
        elif u < self._dup_edge:
            self.duplicated += 1
            self.inner.deliver(event, src_pe, dst_pe)
            ghost = Event(event.key, event.dst, event.kind, event.data)
            ghost.cancelled = True
            self._held.append([ghost, self._delay_hold, True])
        elif u < self._delay_edge:
            self.delayed += 1
            self._held.append([event, self._delay_hold, False])
        else:
            self.inner.deliver(event, src_pe, dst_pe)

    def flush(self) -> int:
        """Flush the inner transport, then release due held messages."""
        delivered = self.inner.flush()
        if not self._held:
            return delivered
        due: list[list] = []
        still: list[list] = []
        for item in self._held:
            item[1] -= 1
            (due if item[1] <= 0 else still).append(item)
        self._held = still
        kernel = self._kernel
        for ev, _, is_ghost in due:
            if is_ghost:
                # Full arrival path (possible rollback); the push counted
                # the pre-cancelled ghost as live, so balance the queue's
                # lazy-deletion accounting by hand.
                kernel._receive(ev)
                kernel.pes[kernel.pe_of_lp[ev.dst]].pending.note_cancelled()
            elif ev.cancelled:
                # Annihilated while held: never delivered.
                self.annihilated_held += 1
            else:
                kernel._receive(ev)
                delivered += 1
        return delivered

    # ------------------------------------------------------------------
    def min_in_flight_ts(self) -> float:
        """Minimum timestamp still in flight, *including* held messages

        and ghosts — both will still arrive and may trigger rollbacks, so
        GVT must not pass them."""
        best = self.inner.min_in_flight_ts()
        for ev, _, is_ghost in self._held:
            if (is_ghost or not ev.cancelled) and ev.key.ts < best:
                best = ev.key.ts
        return best

    def in_flight_count(self) -> int:
        """Messages in transit: inner plus everything held here."""
        return self.inner.in_flight_count() + len(self._held)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyTransport({self.inner.name}, drop={self._drop}, "
            f"held={len(self._held)})"
        )
