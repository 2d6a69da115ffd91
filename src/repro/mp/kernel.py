"""The worker-side Time Warp kernel for multiprocess execution.

One :class:`MPWorkerKernel` runs in each forked worker process.  It *is*
a full :class:`~repro.core.optimistic.TimeWarpKernel` — same rollback
machinery, same queues, same fossil collection, and the same compiled
send and batch closures (the batch running the model's handler table),
built by the same ``_install_fast_paths`` — parameterised three ways:

* its transport is a :class:`~repro.mp.transport.RingTransport`, and its
  ``_far_by_lp`` table tells the fused send which destinations another
  worker steps: those are struct-encoded onto a shared-memory ring, every
  other send keeps the inlined in-process delivery;
* rollback of a send whose positive already crossed a ring transmits an
  anti *frame* down the same ring (FIFO guarantees it cannot overtake
  its positive) instead of cancelling a shared object;
* GVT comes from cross-process token waves (:mod:`repro.mp.gvt`) over
  the control rings, not from inspecting other workers' queues.

The round loop is the base kernel's ``_run``, stepping only this
worker's *owned* PE slice (closures are compiled for that slice alone).
Its bootstrap seeds only owned LPs (it reads ``_far_by_lp``), and the
worker overrides what really differs: a resume also restores the uid
counter and remote-live table (``_loop_state``); every round drains the inbound rings and every GVT
point is a stop-and-drain wave — worker 0 (the leader) initiates,
everyone else joins when the token reaches them (``_gvt_point``); and a
checkpoint shard carries the uid counter (``_checkpoint_loop``).  The
boundary machinery — fossil collection, throttle, metrics, health
watchdog, checkpoint — is the base kernel's.

Interrupts never raise inside a worker mid-round: the SIGINT handler only
sets ``self.intr``, the flag rides the next token, and the RESULT
broadcast makes *every* worker write a final checkpoint shard at the same
wave before exiting (the base loop's ``intr`` branch) — a worker that
unilaterally abandoned the token ring would deadlock its peers mid-wave.
"""

from __future__ import annotations

import time

from repro.core.optimistic import TimeWarpKernel
from repro.errors import SchedulingError
from repro.mp.gvt import TOKEN, WaveCodec
from repro.vt.time import TIME_HORIZON

__all__ = ["MPWorkerKernel"]

#: Back-off while spinning on a control ring.  On single-core hosts this
#: sleep is what hands the CPU to the peer we are waiting for.
_SPIN_SLEEP = 0.0002
_SPIN_FAST = 64
#: A control frame that fails to arrive for this long means a peer died
#: or its publication was irrecoverably lost: raise instead of spinning
#: forever.  Wave passes normally complete in milliseconds; the margin
#: covers single-core scheduling of procs+1 processes plus checkpoint
#: I/O at a shared boundary.
_CTL_STALL_SECONDS = 120.0


class MPWorkerKernel(TimeWarpKernel):
    """One worker process's slice of a multiprocess Time Warp run."""

    def __init__(
        self,
        model,
        config,
        *,
        worker_index: int,
        transport,
        ctl_in,
        ctl_out,
    ) -> None:
        super().__init__(model, config)
        self.worker_index = worker_index
        self.procs = config.procs
        ppw = config.n_pes // config.procs
        self.pe_lo = worker_index * ppw
        self.pe_hi = self.pe_lo + ppw
        self.owned_pes = self.pes[self.pe_lo : self.pe_hi]
        # lp id -> another worker owns the LP's PE (the fused send's far
        # branch; hot in the anti path too).
        self._far_by_lp = [
            not self.pe_lo <= p < self.pe_hi for p in self.pe_of_lp
        ]
        # Swap in the ring transport.  Every owned LP gets the fused send
        # (the far table lets _install_fast_paths compile it around the
        # rings), so nothing reaches the generic _emit; ``_direct`` stays
        # off all the same, so one that did would not bypass the rings.
        transport.bind(self)
        self.transport = transport
        self.ring_transport = transport
        self._direct = False
        self._wave_codec = WaveCodec(config.procs)
        self._ctl_in = ctl_in
        self._ctl_out = ctl_out
        #: Token passes this worker took part in (RunStats.gvt_token_rounds).
        self.gvt_token_rounds = 0
        #: Set asynchronously by the worker's SIGINT handler; piggybacked
        #: on the next wave token, never acted on unilaterally.
        self.intr = False
        #: Optional callable merged into the checkpoint loop dict (the
        #: worker harness persists its commit log through this).
        self.loop_extra = None

    # ------------------------------------------------------------------
    # Anti-messages across the rings.
    # ------------------------------------------------------------------
    def _flag_cancelled(self, ev) -> None:
        """Rollback found a sent message to cancel.

        If its positive crossed a ring (``color`` carries the frame uid
        stamped at send time), transmit the anti frame *before* the base
        bookkeeping marks the journal copy cancelled — the guard on
        ``ev.cancelled`` keeps a twice-rolled-back send from emitting a
        second anti for the same uid.
        """
        if ev.color and not ev.cancelled and self._far_by_lp[ev.dst]:
            self.ring_transport.send_anti(ev)
        super()._flag_cancelled(ev)

    # ------------------------------------------------------------------
    # Wave plumbing.
    # ------------------------------------------------------------------
    def _local_min(self) -> float:
        """Minimum virtual time of this worker's pending events."""
        best = TIME_HORIZON
        for pe in self.owned_pes:
            key = pe.pending.peek_key()
            if key is not None and key.ts < best:
                best = key.ts
        return best

    def _ctl_send(self, frame: bytes) -> None:
        ring = self._ctl_out
        while not ring.try_write(frame):
            # Full ctl ring: the peer is behind.  Republish our tail so
            # it cannot be *stuck* behind on a lost publication.
            ring.republish_tail()
            time.sleep(_SPIN_SLEEP)

    def _ctl_recv(self) -> bytes:
        """Next control frame; keeps the data plane moving while waiting.

        The spin loop heartbeats this worker's own control cursors (its
        ctl-out tail is what the *downstream* peer is waiting on, and
        the whole ring of workers spins here during a wave, so a lost
        token publication heals within one spin).  A frame that never
        arrives raises after :data:`_CTL_STALL_SECONDS` rather than
        deadlocking the token ring silently.
        """
        read = self._ctl_in.try_read
        ctl_in = self._ctl_in
        ctl_out = self._ctl_out
        transport = self.ring_transport
        spins = 0
        deadline = None
        while True:
            frame = read()
            if frame is not None:
                return frame
            transport.flush_out()
            transport.drain()
            ctl_out.republish_tail()
            ctl_in.republish_head()
            spins += 1
            if spins >= _SPIN_FAST:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + _CTL_STALL_SECONDS
                elif now > deadline:
                    raise SchedulingError(
                        f"worker {self.worker_index}: no control frame for "
                        f"{_CTL_STALL_SECONDS:.0f}s (peer dead or token "
                        f"publication lost)"
                    )
                time.sleep(_SPIN_SLEEP)

    def _report_slot(self):
        t = self.ring_transport
        return (t.sent_total, t.recv_total, self._local_min(), self.intr)

    def _lead_wave(self):
        """Worker 0: run token passes until two identical balanced cuts."""
        codec = self._wave_codec
        spans = self.spans
        t0 = spans.clock() if spans is not None else 0.0
        transport = self.ring_transport
        prev = None
        pass_no = 0
        while True:
            pass_no += 1
            self.gvt_token_rounds += 1
            transport.flush_out()
            transport.drain()
            slots = [(0, 0, TIME_HORIZON, False)] * self.procs
            slots[0] = self._report_slot()
            self._ctl_send(codec.encode_token(pass_no, slots))
            _, slots = codec.decode_token(self._ctl_recv())
            sent = sum(s[0] for s in slots)
            recv = sum(s[1] for s in slots)
            if sent == recv and slots == prev:
                break
            prev = slots
        gvt = min(s[2] for s in slots)
        if gvt < self.gvt:
            gvt = self.gvt
        stop = gvt >= self.cfg.end_time
        intr = self.intr or any(s[3] for s in slots)
        self._ctl_send(codec.encode_result(gvt, stop, intr))
        self._ctl_recv()  # absorb the RESULT coming back around
        if spans is not None:
            spans.record("gvt", t0, spans.clock(), n=pass_no)
        return gvt, stop, intr

    def _participate_wave(self, frame: bytes):
        """Workers 1..P-1: stop-and-drain until the RESULT broadcast."""
        codec = self._wave_codec
        spans = self.spans
        t0 = spans.clock() if spans is not None else 0.0
        transport = self.ring_transport
        idx = self.worker_index
        while True:
            if frame[0] == TOKEN:
                self.gvt_token_rounds += 1
                transport.flush_out()
                transport.drain()
                pass_no, slots = codec.decode_token(frame)
                slots[idx] = self._report_slot()
                self._ctl_send(codec.encode_token(pass_no, slots))
                frame = self._ctl_recv()
            else:
                self._ctl_send(frame)  # forward the broadcast onward
                if spans is not None:
                    spans.record("gvt", t0, spans.clock())
                return codec.decode_result(frame)

    def _rebuild_remote_live(self) -> None:
        """Resume: re-key remote-born live events by their frame uid.

        Every remote-born event still above GVT sits in an owned pending
        queue or an owned KP's processed list, stamped with its uid in
        ``color``; snapshots preserve ``color``, so a scan rebuilds the
        exact table the anti frames address.
        """
        from repro.ckpt.state import _queue_events

        live = self.ring_transport._remote_live
        live.clear()
        for pe in self.owned_pes:
            for ev in _queue_events(pe.pending):
                if ev.color:
                    live[ev.color] = ev
        for kp in self.kps:
            for ev in kp.processed:
                if ev.color:
                    live[ev.color] = ev

    # ------------------------------------------------------------------
    # The worker's side of the executive (TimeWarpKernel._run).
    # ------------------------------------------------------------------
    def _loop_state(self) -> dict:
        """The base loop state; on resume also the uid counter and table."""
        resumed = self._resume is not None
        loop = super()._loop_state()
        if resumed:
            self.ring_transport._next_uid = loop.pop("mp_uid")
            self._rebuild_remote_live()
        return loop

    def _gvt_point(self, rounds: int, any_work: bool):
        """Exchange frames, then the wave if one is due.

        Every round flushes spilled frames and drains the inbound rings
        first.  Worker 0 leads a wave every ``gvt_interval`` rounds, after
        a round without work, or once interrupted; the others join when
        its token reaches them.  The uid table is pruned below the new GVT
        before the boundary's fossil collection recycles the objects.
        """
        transport = self.ring_transport
        transport.flush_out()
        spans = self.spans
        if spans is None:
            transport.drain()
        else:
            t0 = spans.clock()
            n = transport.drain()
            if n:
                spans.record("transport", t0, spans.clock(), n=n)
        if self.worker_index == 0:
            if any_work and rounds % self.cfg.gvt_interval and not self.intr:
                return None
            point = self._lead_wave()
        else:
            frame = self._ctl_in.try_read()
            if frame is None:
                if not any_work:
                    time.sleep(_SPIN_SLEEP)
                return None
            point = self._participate_wave(frame)
        transport.prune_below(point[0])
        return point

    def _checkpoint_loop(self, loop: dict, rounds: int) -> dict:
        """The base loop state plus the uid counter and ``loop_extra``."""
        state = super()._checkpoint_loop(loop, rounds)
        state["mp_uid"] = self.ring_transport._next_uid
        if self.loop_extra is not None:
            state.update(self.loop_extra())
        return state

    # ------------------------------------------------------------------
    def _build_result(self, rounds: int):
        result = super()._build_result(rounds)
        stats = result.run
        transport = self.ring_transport
        stats.procs = self.procs
        stats.ring_messages = transport.ring_messages()
        stats.ring_bytes = transport.ring_bytes()
        stats.ring_full_stalls = transport.full_stalls
        stats.gvt_token_rounds = self.gvt_token_rounds
        return result
