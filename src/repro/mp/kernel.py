"""The worker-side Time Warp kernel for multiprocess execution.

One :class:`MPWorkerKernel` runs in each forked worker process.  It *is*
a full :class:`~repro.core.optimistic.TimeWarpKernel` — same rollback
machinery, same queues, same fossil collection, and the same compiled
send / batch / band-stepping closures on the per-event path, chosen by
the same ``_install_fast_paths`` — parameterised three ways:

* its transport is a :class:`~repro.mp.transport.RingTransport`, and its
  ``_far_by_lp`` table tells the fused send which destinations another
  worker steps: those are struct-encoded onto a shared-memory ring, every
  other send keeps the inlined in-process delivery;
* rollback of a send whose positive already crossed a ring transmits an
  anti *frame* down the same ring (FIFO guarantees it cannot overtake
  its positive) instead of cancelling a shared object;
* GVT comes from cross-process token waves (:mod:`repro.mp.gvt`) over
  the control rings, not from inspecting other workers' queues.

The scheduling loop mirrors the base kernel's round structure but only
steps this worker's *owned* PE slice (closures are compiled for that
slice alone), drains the inbound rings every round, and turns every GVT
boundary into a stop-and-drain wave: worker 0 (the leader) initiates,
everyone else joins when the token reaches them.  The boundary machinery
— fossil collection, throttle, metrics, health watchdog — is the base
kernel's ``_gvt_boundary``, called at wave boundaries; checkpoint shards
follow it.

Interrupts never raise inside a worker: the SIGINT handler only sets
``self.intr``, the flag rides the next token, and the RESULT broadcast
makes *every* worker write a final checkpoint shard at the same wave
before exiting — a worker that unilaterally abandoned the token ring
would deadlock its peers mid-wave.
"""

from __future__ import annotations

import time
from functools import partial

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
        # Swap in the ring transport.  ``_direct`` stays off — a send
        # that reaches the generic _emit must go through the transport —
        # while the far table lets _install_fast_paths compile the fused
        # send around it.
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
        #: True once a wave told us to exit early (parent re-raises).
        self.interrupted = False
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
    # The worker executive.
    # ------------------------------------------------------------------
    def _run(self):
        """Run this worker's PE slice to ``end_time`` (or interruption).

        The worker's executive under the base kernel's :meth:`run`.
        Returns the merged-ready RunResult, or ``None`` when a wave
        carried the interrupt flag (the final shard is already written;
        the parent turns this into KeyboardInterrupt).
        """
        cfg = self.cfg
        end = cfg.end_time
        transport = self.ring_transport
        resumed = self._resume is not None
        loop = self._loop_state()
        if resumed:
            transport._next_uid = loop.pop("mp_uid")
            self._rebuild_remote_live()
        else:
            self._current_event = None
            # Bootstrap *owned* LPs only: every worker holds the full
            # population (fork inherits it), so seeding all of them would
            # duplicate each initial event once per worker.
            far = self._far_by_lp
            for lp in self.lps:
                if not far[lp.id]:
                    lp._now = -1.0
                    lp.on_init()
            transport.flush_out()

        pes = self.owned_pes
        # Indexed by PE id like the base kernel's; a tracer keeps the
        # generic per-event execute.
        step_pe = self._batch_by_pe or {
            pe.id: partial(pe.process_batch, self) for pe in pes
        }
        stats_by_pe = [pe.stats for pe in pes]
        sched_per_round = self.cost.sched_per_round
        gvt_overhead = max(
            self.cost.gvt_overhead(pe.lp_count, len(pe.kp_ids)) for pe in pes
        )
        metrics = self.metrics
        spans = self.spans
        clock = spans.clock if spans is not None else None
        ckpt = self.ckpt
        rounds = loop["rounds"]
        eff_batch = loop["eff_batch"]
        eff_window = loop["eff_window"]
        leader = self.worker_index == 0
        interval = cfg.gvt_interval

        def loop_state():
            state = {**loop, "rounds": rounds, "mp_uid": transport._next_uid}
            if self.loop_extra is not None:
                state.update(self.loop_extra())
            return state

        while True:
            if eff_window is not None:
                limit = min(end, self.gvt + eff_window)
            else:
                limit = end
            any_work = False
            for st in stats_by_pe:
                st.round_busy = 0.0
            for pe in pes:
                if spans is None:
                    done = step_pe[pe.id](eff_batch, limit)
                else:
                    t0 = clock()
                    done = step_pe[pe.id](eff_batch, limit)
                    if done:
                        spans.record("exec", t0, clock(), pe=pe.id, n=done)
                if done:
                    any_work = True
            rounds += 1
            round_max = 0.0
            for st in stats_by_pe:
                if st.round_busy > round_max:
                    round_max = st.round_busy
            self.makespan_units += round_max + sched_per_round
            transport.flush_out()
            if spans is None:
                transport.drain()
            else:
                t0 = clock()
                n = transport.drain()
                if n:
                    spans.record("transport", t0, clock(), n=n)

            # --- wave entry ------------------------------------------
            result = None
            if leader:
                if rounds % interval == 0 or not any_work or self.intr:
                    result = self._lead_wave()
            else:
                frame = self._ctl_in.try_read()
                if frame is not None:
                    result = self._participate_wave(frame)
                elif not any_work:
                    time.sleep(_SPIN_SLEEP)
            if result is None:
                continue

            # --- wave boundary (the inline kernel's GVT boundary) -----
            gvt, stop, intr = result
            self.gvt = gvt
            # Prune the uid table before collection recycles the objects.
            transport.prune_below(gvt)
            self._gvt_boundary(loop, gvt_overhead)
            eff_batch = loop["eff_batch"]
            eff_window = loop["eff_window"]
            if intr:
                # Every worker writes its final shard at this same wave,
                # keeping the shard set resumable as a unit.
                if ckpt is not None:
                    if ckpt.heartbeat is not None:
                        ckpt.heartbeat.touch()
                    ckpt.boundaries += 1
                    ckpt.write(self, loop_state)
                self.interrupted = True
                return None
            if stop:
                break
            if ckpt is not None:
                # Worker checkpointers never carry ``interrupted`` (the
                # interrupt travels the wave instead), so this cannot
                # raise KeyboardInterrupt out of the token ring.
                ckpt.boundary(self, loop_state)

        transport.prune_below(TIME_HORIZON)
        self.fossil_collect(TIME_HORIZON)
        if metrics is not None:
            self._sample_metrics(metrics, end)
        return self._build_result(rounds)

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
