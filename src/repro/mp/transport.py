"""The ring transport: cross-process event delivery for one worker.

Each worker kernel owns one :class:`RingTransport`.  It takes the place
of the Time Warp kernel's immediate transport (the worker clears
``_direct``), and the far side of a remote send is another OS process —
this is where messages are genuinely in flight between a send and its
arrival:

* **Within-worker** sends (destination PE owned by this worker) never
  reach it: the worker's compiled send inlines their arrival, exactly as
  the in-process kernel does, and calls :meth:`RingTransport.deliver`
  for cross-worker destinations only.
* **Cross-worker** sends are struct-encoded (:mod:`repro.mp.codec`) and
  appended to the one :class:`~repro.mp.ring.SpscRing` this worker
  writes toward the destination worker.  The sender's journal copy of
  the event stays alive locally (for rollback cancellation) stamped with
  the frame's ``uid`` in ``Event.color``; the receiver materialises an
  independent copy and records it in ``_remote_live`` under the same
  uid, so a later anti-message annihilates exactly the right copy.

Full rings never block.  ``SpscRing.try_write`` fails fast and the frame
goes to a per-destination overflow deque, flushed opportunistically
(every scheduling round and continuously during GVT waves).  Blocking
here could deadlock two workers mid-rollback writing toward each other;
spilling cannot.  FIFO per destination is preserved — a frame bypasses
the deque only when the deque is empty — which is what makes the
anti-after-its-positive ordering guarantee hold.

Wave accounting: ``sent_total`` counts frames at *enqueue* time and
``recv_total`` at decode time, positives and antis alike.  The GVT wave
terminates only when the global sent/recv vectors are balanced and
stable (see :mod:`repro.mp.gvt`), which therefore also proves every
overflow deque is empty — a frame parked in a deque is counted as sent
but cannot yet have been received.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SchedulingError
from repro.vt.time import TIME_HORIZON, EventKey

__all__ = ["RingTransport"]

_tuple_new = tuple.__new__


class RingTransport:
    """Cross-process transport for one worker (see the module docstring)."""

    name = "ring"

    def __init__(
        self,
        worker_index: int,
        procs: int,
        pes_per_worker: int,
        codec,
        out_rings: dict,
        in_rings: list,
    ) -> None:
        #: ``out_rings``: destination worker -> SpscRing this worker
        #: produces into.  ``in_rings``: ``(source worker, SpscRing)``
        #: pairs this worker consumes, in source order (determinism: the
        #: drain order is part of the execution interleaving, which the
        #: committed sequence is invariant under — but keeping it fixed
        #: makes *diagnostic* counters repeatable too).
        self.index = worker_index
        self.procs = procs
        self.pes_per_worker = pes_per_worker
        self.codec = codec
        self.out = out_rings
        self.inbound = in_rings
        self.kernel = None
        self._overflow = {w: deque() for w in out_rings}
        #: Sender-unique frame ids: ``index + procs * k`` for k >= 1, so
        #: uid 0 never occurs (``Event.color == 0`` means "local") and
        #: two workers can never mint the same uid.
        self._next_uid = worker_index + procs
        #: Remote-born live events by uid (receiver side); pruned below
        #: GVT each wave, *before* fossil collection recycles the objects.
        self._remote_live: dict = {}
        #: Wave accounting (cumulative frames, positives + antis).
        self.sent_total = 0
        self.recv_total = 0
        #: Frames that could not be written on first try (ring full).
        self.full_stalls = 0

    def bind(self, kernel) -> None:
        """Attach the worker kernel this transport delivers into."""
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Producer side.
    # ------------------------------------------------------------------
    def deliver(self, ev, src_pe: int, dst_pe: int) -> None:
        """Encode one cross-worker send and enqueue it toward ``dst_pe``."""
        uid = self._next_uid
        self._next_uid = uid + self.procs
        ev.color = uid
        self._enqueue(dst_pe // self.pes_per_worker, self.codec.encode_event(ev, uid))

    def send_anti(self, ev) -> None:
        """Transmit the anti-message for a previously sent positive.

        Travels the same src->dst ring as its positive, so FIFO delivery
        guarantees the anti can never overtake it.
        """
        dst_worker = (
            self.kernel.pe_of_lp[ev.dst] // self.pes_per_worker
        )
        self._enqueue(dst_worker, self.codec.encode_anti(ev, ev.color))

    def _enqueue(self, dst_worker: int, frame: bytes) -> None:
        self.sent_total += 1
        q = self._overflow[dst_worker]
        if q or not self.out[dst_worker].try_write(frame):
            self.full_stalls += 1
            q.append(frame)

    def flush_out(self) -> bool:
        """Move spilled frames into their rings; True when all drained.

        Also heartbeats every outbound ring's shared tail cursor (see
        :meth:`repro.mp.ring.SpscRing.republish_tail`): flush_out runs
        every scheduling round and continuously during GVT waves, so a
        lost tail store heals before it can strand published frames.
        """
        drained = True
        for w, q in self._overflow.items():
            if not q:
                continue
            ring = self.out[w]
            while q:
                if ring.try_write(q[0]):
                    q.popleft()
                else:
                    drained = False
                    break
        for ring in self.out.values():
            ring.republish_tail()
        return drained

    # ------------------------------------------------------------------
    # Consumer side.
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Consume every readable frame from every inbound ring.

        Positive frames become fresh local events (through the kernel's
        allocator, so pooling applies) and go through the full Time Warp
        arrival path — straggler check, rollback, cancellation cascades.
        Anti frames annihilate the ``_remote_live`` entry minted when
        their positive arrived.  Returns the number of frames consumed.
        """
        kernel = self.kernel
        alloc = kernel._alloc
        decode = self.codec.decode
        remote_live = self._remote_live
        n = 0
        for src, ring in self.inbound:
            read = ring.try_read
            while True:
                frame = read()
                if frame is None:
                    break
                n += 1
                decoded = decode(frame)
                if decoded[0] == "pos":
                    _, uid, ts, origin, seq, dst, kind, data = decoded
                    ev = alloc(
                        _tuple_new(EventKey, (ts, origin, seq)), dst, kind, data
                    )
                    ev.color = uid
                    remote_live[uid] = ev
                    kernel._receive(ev)
                else:
                    _, uid, ts, origin, seq, dst = decoded
                    ev = remote_live.pop(uid, None)
                    if ev is None:
                        raise SchedulingError(
                            f"worker {self.index}: anti-message for unknown "
                            f"uid {uid} (key ({ts}, {origin}, {seq}) -> "
                            f"lp{dst}); positive lost or double-cancelled"
                        )
                    kernel._cancel(ev)
            # Heartbeat the shared head (twin of flush_out's tail
            # republish): heals a lost head store that would otherwise
            # make the producer see the ring as permanently full.
            ring.republish_head()
        if n:
            self.recv_total += n
            kernel._drain_cancels()
        return n

    def prune_below(self, gvt: float) -> None:
        """Forget remote-born events committed below ``gvt``.

        Must run *before* fossil collection each wave: collection recycles
        the Event objects through the pool, and a stale uid mapping to a
        recycled object would let a (bug-induced) late anti cancel an
        unrelated event.  Anti-messages always target ts > GVT (their
        sender's parent was still rollback-able), so pruning strictly
        below GVT can never drop a uid that still has an anti in flight.
        """
        live = self._remote_live
        if not live:
            return
        dead = [uid for uid, ev in live.items() if ev.key.ts < gvt]
        for uid in dead:
            del live[uid]

    # ------------------------------------------------------------------
    # Kernel-facing transport surface (the parts the base kernel calls).
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Round-boundary hook of the transport ABI: nothing to do.

        The worker's GVT point flushes spilled frames and drains the
        inbound rings every round, before its wave.  A drain here, after
        the wave, would let frames a peer sent past the wave's cut into
        this worker's checkpoint shard.
        """
        return 0

    def min_in_flight_ts(self) -> float:
        """Unknowable locally; the GVT waves account for in-flight frames
        by counting, never by timestamp inspection."""
        return TIME_HORIZON

    def in_flight_count(self) -> int:
        """Locally held undelivered frames (checkpoint precondition).

        Only the overflow spill is locally visible; ring emptiness at
        checkpoint boundaries is guaranteed by the wave protocol.
        """
        return sum(len(q) for q in self._overflow.values())

    # ------------------------------------------------------------------
    # Counters for RunStats / obs.
    # ------------------------------------------------------------------
    def ring_messages(self) -> int:
        """Frames this worker wrote across all its outbound rings."""
        return sum(r.messages_written for r in self.out.values())

    def ring_bytes(self) -> int:
        """Payload bytes this worker wrote across its outbound rings."""
        return sum(r.bytes_written for r in self.out.values())
