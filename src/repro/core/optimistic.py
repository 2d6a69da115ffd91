"""The optimistic (Time Warp) engine: kernel plus round-robin executive.

This is the ROSS analog.  The kernel owns the LP population, the KP/PE
structure, the transport, rollback strategy, GVT manager and all statistics;
the executive schedules PEs round-robin, each executing an *optimism batch*
of events per round.  Because PEs run ahead of each other in virtual time,
cross-PE messages genuinely arrive in the receiver's past, producing real
stragglers, rollbacks, anti-message cascades and fossil collection — the
full Time Warp dynamic, deterministic and repeatable.

Hardware substitution (see DESIGN.md): the PEs are *simulated* processors
multiplexed on one OS thread.  Every count the report's figures use
(events processed, rolled back, remote messages, rounds) is measured from
the real execution; wall-clock speed is derived from those counts through
the calibrated :class:`~repro.core.costmodel.CostModel`.

Why the interleaving is safe (the invariant the implementation leans on):
any rollback triggered while event ``e`` is being processed was caused by a
message ``e`` itself sent, whose timestamp is strictly greater than
``e.ts``; therefore every event undone by the cascade has a key greater
than ``e``'s and neither ``e`` nor its parent can be affected mid-flight.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.config import EngineConfig
from repro.core.event import Event, _next_serial
from repro.core.executor import Executor
from repro.core.gvt import SynchronousGVT
from repro.core.kp import KernelProcess
from repro.core.lp import LogicalProcess, Model
from repro.core.mapping import build_mapping
from repro.core.pe import ProcessingElement
from repro.core.result import RunResult
from repro.core.rollback import make_strategy
from repro.core.stats import RunStats
from repro.core.throttle import Throttle
from repro.core.transport import ImmediateTransport
from repro.errors import SchedulingError
from repro.vt.time import TIME_HORIZON, EventKey

__all__ = ["TimeWarpKernel", "run_optimistic"]

_tuple_new = tuple.__new__


class _Bootstrap:
    """The executing event a send reads while ``on_init`` runs: the LP
    whose bootstrap it is (``dst``, the send's source) and a journal that
    nothing rolls back (``sent``, emptied per LP)."""

    __slots__ = ("dst", "sent")


def _compile_send(
    kernel: "TimeWarpKernel",
    pending_by_lp,
    processed_by_lp,
    far_by_lp,
):
    """Build the fused send fast path: the kernel's one ``send``.

    This is ``LogicalProcess.send`` + ``EventPool.acquire`` +
    ``TimeWarpKernel._emit`` collapsed into one closure: one frame per
    send instead of three, with every piece of kernel state that is
    constant for the run captured as a cell variable instead of re-read
    through attribute chains.  Only compiled where delivery can be
    inlined too: the immediate transport, and a process-mode worker's
    ring transport, whose ``far_by_lp`` table (LP id -> "stepped by
    another worker"; ``None`` in-process) sends a far destination to
    ``transport.deliver`` — ring encode, uid stamp — after the journal
    entry and the charge, exactly where ``_emit`` hands over.

    One send serves every source LP: the source is the LP whose event is
    executing, ``kernel._current_event.dst`` — set by the batch loop
    before it runs a handler, and by the bootstrap around each
    ``on_init`` — and its PE and stats are read from the run-constant
    per-LP lists.  So a model sends only from the LP whose event is
    running.  Set-up is linear in the LP population: the per-LP tables
    ``pending_by_lp`` / ``processed_by_lp`` are built once per kernel by
    ``_install_fast_paths`` and nothing is compiled per LP.

    Correctness contract: the operation sequence is *identical* to the
    generic path — same validation, same RNG/sequence usage, same stats,
    same straggler handling — so fused and generic runs are bit-identical
    (the determinism suite compares them).
    """
    lps = kernel.lps
    pe_of_lp = kernel.pe_of_lp
    stats_by_pe = kernel._stats_by_pe
    cost_local = kernel._cost_local
    cost_remote = kernel._cost_remote
    pool = kernel.pool
    pool_free = pool._free
    kp_of_lp = kernel._kp_of_lp
    pe_by_lp = kernel._pe_by_lp
    serial = _next_serial
    straggler = kernel._straggler
    deliver_far = kernel.transport.deliver

    def send(ts, dst, kind, data=None):
        current = kernel._current_event
        src = current.dst
        lp = lps[src]
        if ts <= lp._now:
            raise SchedulingError(
                f"LP {src} tried to send {kind!r} at ts={ts} while "
                f"processing ts={lp._now}; sends must move strictly forward"
            )
        seq = lp.send_seq
        lp.send_seq = seq + 1
        key = _tuple_new(EventKey, (ts, src, seq))
        # Inlined EventPool.acquire.
        if pool_free:
            pool.hits += 1
            ev = pool_free.pop()
            ev.key = key
            ev.dst = dst
            ev.kind = kind
            ev.data = data if data is not None else {}
            ev.rng_draws = 0
            ev.prev_send_seq = 0
            ev.processed = False
            ev.color = 0
            ev.serial = serial()
        else:
            pool.allocs += 1
            ev = Event(key, dst, kind, data)
        # Inlined TimeWarpKernel._emit.
        current.sent.append(ev)
        src_pe = pe_of_lp[src]
        dst_pe = pe_of_lp[dst]
        stats = stats_by_pe[src_pe]
        if src_pe == dst_pe:
            stats.local_sends += 1
            units = cost_local
        else:
            stats.remote_sends += 1
            units = cost_remote
        stats.busy += units
        stats.round_busy += units
        if far_by_lp is not None and far_by_lp[dst]:
            deliver_far(ev, src_pe, dst_pe)
            return ev
        # Inlined PendingQueue.push.
        q = pending_by_lp[dst]
        heappush(q._heap, (ts, src, seq, ev.serial, ev))
        ev.in_pending = True
        q._live += 1
        processed = processed_by_lp[dst]
        if processed and processed[-1].key > key:
            straggler(pe_by_lp[dst], kp_of_lp[dst], ev)
        return ev

    return send


def _compile_batch(kernel: "TimeWarpKernel", pe, processed_by_lp, handlers):
    """Build the per-PE batch loop: the one place Time Warp executes events.

    Pop the next live pending event below the optimism limit, journal it
    (a fresh ``saved`` dict and send list, the send sequence, the copy
    strategy's snapshot), note the RNG count, run it, then record what
    it drew, append it to its KP's processed list and charge the PE —
    in-process and in every process-mode worker, traced or not, under
    either rollback strategy and over any transport.  "Run it" is the model's handler for the
    event's kind from ``handlers`` (:meth:`Model.handlers`), or
    ``lp.forward`` for a kind it has none for; either way the handler
    only does what the model does, and this loop does the bookkeeping
    once.  An attached tracer sees the event last.

    Rollbacks triggered mid-loop mutate the same heap list and stats
    objects captured here (they are never rebound), so the hoisted locals
    stay valid across re-entrant sends.
    """
    lps = kernel.lps
    snapshot_before = kernel._snapshot_before
    tracer = kernel.tracer
    on_exec = tracer.on_exec if tracer is not None else None
    handler_for = handlers.get
    pending = pe.pending
    heap = pending._heap
    stats = pe.stats
    event_cost = pe.event_cost

    def fast_batch(max_events, limit_ts):
        # ``_live`` and ``stats.processed`` are settled once per batch in
        # the ``finally`` below: both are plain counters that nothing
        # reads mid-batch (the run loop, GVT, fossil collection and
        # telemetry all run between batches), and re-entrant
        # sends/rollbacks only ever ``+=``/``-=`` them, which commutes
        # with the deferred decrement.  The float busy charges stay
        # per-event: rollback charges interleave with them and their
        # accumulation order is part of bit-identical reproducibility.
        # ``kernel._current_event`` (the executing event: the send reads
        # its source LP and journal from it) is likewise reset once,
        # there: between two events of a batch nothing sends.
        done = 0
        try:
            while done < max_events:
                # --- inlined PendingQueue.pop_below -------------------
                while True:
                    if not heap:
                        return done
                    entry = heap[0]
                    ev = entry[4]
                    if ev.cancelled:
                        heappop(heap)
                        ev.in_pending = False
                        continue
                    if entry[0] >= limit_ts:
                        return done
                    heappop(heap)
                    ev.in_pending = False
                    break
                # --- execute --------------------------------------------
                dst = ev.dst
                lp = lps[dst]
                # A fresh journal per execution; a pending event has none.
                ev.saved = {}
                ev.sent = []
                ev.prev_send_seq = lp.send_seq
                if snapshot_before is not None:
                    ev.snapshot = None
                    snapshot_before(lp, ev)
                # (Under reverse computation ``ev.snapshot`` is already
                # None — nothing on that strategy's path ever sets it —
                # so the per-event clear is elided.)
                rng = lp.rng
                rng_before = rng._count
                lp._now = entry[0]
                kernel._current_event = ev
                handler = handler_for(ev.kind)
                if handler is None:
                    lp.forward(ev)
                else:
                    handler(ev, dst, rng)
                ev.rng_draws = rng._count - rng_before
                ev.processed = True
                processed_by_lp[dst].append(ev)
                stats.busy += event_cost
                stats.round_busy += event_cost
                if on_exec is not None:
                    on_exec(ev)
                done += 1
            return done
        finally:
            kernel._current_event = None
            if done:
                pending._live -= done
                stats.processed += done

    return fast_batch


class TimeWarpKernel(Executor):
    """One optimistic simulation instance.

    Build it with a :class:`~repro.core.lp.Model` and an
    :class:`~repro.core.config.EngineConfig`, then call :meth:`run`.
    """

    kind = "optimistic"

    def __init__(self, model: Model, config: EngineConfig) -> None:
        self.cfg = config
        self.cost = config.cost

        # --- LP population -------------------------------------------------
        self._init_population(model)
        n_lps = len(self.lps)
        # --- Mapping, KPs, PEs --------------------------------------------
        grid = getattr(model, "grid", None)
        self.mapping = build_mapping(
            n_lps,
            config.n_kps,
            config.n_pes,
            config.mapping,
            grid=grid,
            seed=config.seed,
        )
        self.kps = [
            KernelProcess(k, self.mapping.kp_to_pe[k]) for k in range(config.n_kps)
        ]
        self.pes = [ProcessingElement(p) for p in range(config.n_pes)]
        for kp in self.kps:
            self.pes[kp.pe_id].kp_ids.append(kp.id)
        #: The PEs this kernel steps: all of them, except in a process-mode
        #: worker, which narrows this to its slice.
        self.owned_pes = self.pes
        self.pe_of_lp: list[int] = []
        #: Per-LP destination caches: one flat index replaces the
        #: lps[i].kp / pes[pe_of_lp[i]] double lookups on the send path.
        self._kp_of_lp: list[KernelProcess] = []
        self._pe_by_lp: list[ProcessingElement] = []
        for lp in self.lps:
            kp = self.kps[self.mapping.lp_to_kp[lp.id]]
            lp.kp = kp
            kp.lp_ids.append(lp.id)
            pe = self.pes[kp.pe_id]
            pe.lp_count += 1
            self.pe_of_lp.append(pe.id)
            self._kp_of_lp.append(kp)
            self._pe_by_lp.append(pe)

        # --- Strategy / transport / GVT -------------------------------------
        self.strategy = make_strategy(config.rollback)
        #: Immediate (shared-memory) delivery.  A fault plan wraps it and
        #: a process-mode worker swaps in its ring transport; both clear
        #: ``_direct``.
        self.transport = ImmediateTransport(self._receive)
        self.gvt_manager = SynchronousGVT()

        # --- Hot-path capability flags & event pool --------------------------
        #: Event recycling free list.
        self._alloc = self._init_pool()
        #: The immediate transport is a plain function indirection; the
        #: compiled send inlines its delivery while this is set.
        self._direct = True
        #: LP id -> "stepped by another worker process"; ``None`` when
        #: this kernel steps every LP (see :class:`repro.mp.kernel.
        #: MPWorkerKernel`, the one kernel that sets it).
        self._far_by_lp: list[bool] | None = None
        #: ``strategy.before`` is a no-op under reverse computation; only
        #: the copy strategy keeps its per-event call.
        self._snapshot_before = (
            self.strategy.before if self.strategy.name == "copy" else None
        )
        self._stats_by_pe = [pe.stats for pe in self.pes]
        self._cost_local = self.cost.local_send
        self._cost_remote = self.cost.remote_send
        #: Per-LP commit hook table: ``None`` for LPs that inherit the
        #: base no-op ``commit``, so fossil collection skips the call
        #: entirely (PHOLD commits nothing; hot-potato routers do).
        base_commit = LogicalProcess.commit
        commit_of_lp = [
            None if type(lp).commit is base_commit else lp.commit
            for lp in self.lps
        ]
        #: ``None`` when no LP overrides ``commit`` at all — fossil
        #: collection then skips even the per-event table lookup.
        self._commit_of_lp = (
            commit_of_lp if any(cb is not None for cb in commit_of_lp) else None
        )

        # --- Cost precomputation --------------------------------------------
        snapshot_cost = self.cost.snapshot if self.strategy.name == "copy" else 0.0
        bus = self.cost.bus_factor(config.n_pes, n_lps)
        # The cache factor uses the *total* LP population: on the ROSS-style
        # shared-memory target the event pool and fossil lists live in one
        # shared heap, so partitioning LPs across PEs does not shrink the
        # hot working set — while the bus factor makes the misses pricier.
        for pe in self.pes:
            pe.event_cost = (self.cost.event_cost(n_lps) + snapshot_cost) * bus
        self.undo_cost = (
            self.cost.reverse if self.strategy.name == "reverse" else self.cost.restore
        )

        # --- Run-level counters ----------------------------------------------
        self.makespan_units = 0.0
        self.fossil_collected = 0
        self.gvt_rounds = 0
        self.cancelled_direct = 0
        self.cancelled_via_rollback = 0
        self._cancel_worklist: list[Event] = []
        self._current_event: Event | None = None
        #: Per-PE batch loops (see ``_compile_batch``); ``None`` until
        #: ``_install_fast_paths`` compiles them at the top of the run.
        self._batch_by_pe: list | None = None
        #: Optional optimism throttle (see EngineConfig.adaptive).
        self.throttle = Throttle() if config.adaptive else None
        self.gvt = 0.0
        #: Optional event tracer (see repro.core.trace).
        self.tracer = None
        #: Optional GVT-interval metrics recorder (see repro.obs.metrics).
        #: Consulted only at GVT boundaries — never on the per-event path —
        #: so attaching one keeps the fused fast paths installed and costs
        #: nothing when detached.
        self.metrics = None
        #: Optional span tracer (see repro.obs.spans).  Consulted at phase
        #: boundaries only — per PE batch, per rollback episode, per GVT
        #: round — so, like metrics, it keeps the fused fast paths
        #: installed and costs nothing when detached.
        self.spans = None
        #: Optional fault driver (see repro.faults.injector.EngineFaults).
        #: Consulted once per PE per round when attached; when None (the
        #: default) the run loop and fast paths are exactly as before.
        self.faults = None
        #: Peak live-event counts, sampled at GVT boundaries (the memory
        #: footprint Time Warp is famous for; ROSS's fossil collection
        #: exists to bound exactly this).
        self.peak_pending = 0
        self.peak_processed = 0
        #: Optional checkpointer (see repro.ckpt); consulted only at GVT
        #: boundaries, after fossil collection and the transport flush,
        #: when below-GVT state is committed.
        self.ckpt = None
        #: Optional liveness watchdog (see repro.health); consulted only
        #: at GVT boundaries, like metrics — fast paths stay installed.
        self.health = None
        #: Run-loop state grafted by a checkpoint restore; consumed (and
        #: cleared) at the top of :meth:`run`.
        self._resume = None

        # --- Bind LPs ---------------------------------------------------------
        self._bind_lps(config.seed, self._alloc)

    # ------------------------------------------------------------------
    # Message path.
    # ------------------------------------------------------------------
    def _emit(self, src_lp: LogicalProcess, ev: Event) -> None:
        """Kernel side of ``LogicalProcess.send``: journal, charge, route."""
        current = self._current_event
        pe_of_lp = self.pe_of_lp
        src_pe = pe_of_lp[src_lp.id]
        dst_pe = pe_of_lp[ev.dst]
        if current is not None:
            current.sent.append(ev)
        stats = self._stats_by_pe[src_pe]
        if src_pe == dst_pe:
            stats.local_sends += 1
            units = self._cost_local
        else:
            stats.remote_sends += 1
            units = self._cost_remote
        stats.busy += units
        stats.round_busy += units
        self.transport.deliver(ev, src_pe, dst_pe)

    def _receive(self, ev: Event) -> None:
        """Deliver an event to its destination PE, rolling back if it is a

        straggler for the destination KP.
        """
        kp = self.lps[ev.dst].kp
        pe = self.pes[kp.pe_id]
        pe.pending.push(ev)
        if kp.needs_rollback(ev.key):
            self._straggler(pe, kp, ev)

    # ------------------------------------------------------------------
    # Undo (execution is the compiled batch, ``_compile_batch``).
    # ------------------------------------------------------------------
    def undo_event(self, ev: Event) -> None:
        """Undo one processed event (called by KP rollback, tail-first).

        The messages it sent are cancelled now — aggressive cancellation;
        processed ones are deferred to the cancel worklist to avoid
        unbounded recursion through cascades.  The rollback strategy then
        restores LP state, the journal is dropped (the reverse handler has
        read it) and the event is requeued, pending like any other.
        """
        lp = self.lps[ev.dst]
        for child in reversed(ev.sent):
            self._cancel(child)
        self.strategy.undo(lp, ev)
        ev.saved = ev.sent = None
        ev.processed = False
        self._pe_by_lp[ev.dst].pending.push(ev)
        if self.tracer is not None:
            self.tracer.on_undo(ev)

    def _cancel(self, child: Event) -> None:
        """Cancel one message: flag it if unprocessed, defer a secondary

        rollback to the worklist if it has already executed.
        """
        if child.processed:
            self._cancel_worklist.append(child)
        elif not child.cancelled:
            self._flag_cancelled(child)
            self.cancelled_direct += 1

    def _flag_cancelled(self, ev: Event) -> None:
        """Mark an unprocessed event dead."""
        ev.cancelled = True
        if ev.in_pending:
            self._pe_by_lp[ev.dst].pending.note_cancelled()

    def _drain_cancels(self) -> None:
        """Resolve deferred cancellations of already-processed events.

        Each entry needs a *secondary rollback* of its KP back to just
        before the event ran; the rollback requeues the event, which is
        then flagged cancelled.  Rollbacks triggered here may push more
        work onto the list; the loop runs until quiescence (processed-event
        count strictly decreases, so it terminates).
        """
        worklist = self._cancel_worklist
        if not worklist:
            return
        spans = self.spans
        t0 = spans.clock() if spans is not None else 0.0
        drained = 0
        while worklist:
            ev = worklist.pop()
            drained += 1
            if ev.cancelled:
                continue
            if ev.processed:
                kp = self.lps[ev.dst].kp
                pe = self.pes[kp.pe_id]
                self._charge(pe, self.cost.rollback_fixed)
                undone = kp.rollback_until(ev.key, self, ev.dst)
                self._charge(pe, undone * self.undo_cost)
            if not ev.cancelled:
                self._flag_cancelled(ev)
                self.cancelled_via_rollback += 1
        if spans is not None:
            spans.record("antimsg", t0, spans.clock(), n=drained)

    def _charge(self, pe: ProcessingElement, units: float) -> None:
        pe.stats.busy += units
        pe.stats.round_busy += units

    def _straggler(self, pe: ProcessingElement, kp, ev: Event) -> None:
        """Straggler arrival: charge and roll the destination KP back.

        The rare branch of both sends: the fused one (see
        :func:`_compile_send`) and :meth:`_receive`, the generic one's
        arrival.
        """
        stats = pe.stats
        stats.stragglers += 1
        # Two separate charges — float accumulation order is part of
        # bit-identical reproducibility.
        units = self.cost.rollback_fixed
        stats.busy += units
        stats.round_busy += units
        undone = kp.rollback_until(ev.key, self, ev.dst)
        units = undone * self.undo_cost
        stats.busy += units
        stats.round_busy += units
        self._drain_cancels()

    # ------------------------------------------------------------------
    # GVT and fossil collection.
    # ------------------------------------------------------------------
    def schedule(self, ev: Event) -> None:
        """Executor ABI: bare enqueue at the destination LP's PE."""
        self._pe_by_lp[ev.dst].pending.push(ev)

    def deliver(self, ev: Event) -> None:
        """Executor ABI: full Time Warp arrival (straggler check, rollback)."""
        self._receive(ev)

    def fossil(self, horizon: float) -> int:
        """Executor ABI: real fossil collection below ``horizon``."""
        return self.fossil_collect(horizon)

    def attach_faults(self, driver) -> "TimeWarpKernel":
        """Attach a :class:`repro.faults.injector.EngineFaults`; returns self.

        Installing may wrap the transport (clearing ``_direct``, so the
        fused fast paths are not compiled around the wrapper) and compile
        PE-stall windows; must happen before :meth:`run`.
        """
        self.faults = driver
        driver.install(self)
        return self

    def _sample_metrics(self, recorder, gvt: float) -> None:
        """Feed the recorder the current cumulative counters (O(PEs+KPs))."""
        pes, kps = self.pes, self.kps
        recorder.sample(
            gvt=gvt,
            committed=self.fossil_collected,
            processed=sum(pe.stats.processed for pe in pes),
            rolled_back=sum(kp.stats.events_rolled_back for kp in kps),
            rollbacks=sum(kp.stats.rollbacks for kp in kps),
            stragglers=sum(pe.stats.stragglers for pe in pes),
            fossil_collected=self.fossil_collected,
            pending=sum(len(pe.pending) for pe in pes),
            processed_depth=sum(len(kp.processed) for kp in kps),
            throttle=self.throttle.factor if self.throttle is not None else 1.0,
            pool_hit_rate=self.pool.hit_rate,
            kp_rolled_back=[kp.stats.events_rolled_back for kp in kps],
        )

    def fossil_collect(self, gvt_ts: float) -> int:
        """Commit and free everything below ``gvt_ts`` across all KPs."""
        # ``_live`` is PendingQueue.__len__ without the dispatch; this
        # runs every GVT boundary (default: every round).
        pending_now = 0
        for pe in self.pes:
            pending_now += pe.pending._live
        processed_now = 0
        collected = 0
        for kp in self.kps:
            processed_now += len(kp.processed)
            collected += kp.fossil_collect(gvt_ts, self)
        if pending_now > self.peak_pending:
            self.peak_pending = pending_now
        if processed_now > self.peak_processed:
            self.peak_processed = processed_now
        self.fossil_collected += collected
        return collected

    # ------------------------------------------------------------------
    # The executive.
    # ------------------------------------------------------------------
    def _install_fast_paths(self) -> None:
        """Compile the run's send and batch closures.

        Called once at the top of :meth:`run`, after any tracer has been
        attached.  The fused send (:func:`_compile_send`, one per kernel)
        needs a delivery it can inline: the immediate transport, or a
        process-mode worker's ring transport behind the ``_far_by_lp``
        branch.  Every LP this kernel steps then holds it in its ``_send``
        slot, which ``LogicalProcess.send`` calls, and the handler table
        gets it too.  A fault-wrapped
        transport keeps the generic ``LogicalProcess.send`` → :meth:`_emit` →
        ``transport.deliver``, and the table gets
        :meth:`Executor._executing_send`.  The batch
        (:func:`_compile_batch`) is compiled either way, around the
        model's handler table (:meth:`Executor._handler_table`), for the
        PEs this kernel steps.
        """
        far = self._far_by_lp
        # Run-constant per-LP dispatch tables, built here once (after any
        # checkpoint restore) and shared by every compiled closure, so
        # set-up stays linear in the LP population.  They alias the live
        # ``pe.pending`` / ``kp.processed`` objects, which are mutated in
        # place and never rebound (rollback pops, fossil collection
        # ``del``s a prefix, a restore assigns ``processed[:]``).
        processed_by_lp = [kp.processed for kp in self._kp_of_lp]
        send = None  # the table's default: the executing LP's own send
        if self._direct or far is not None:
            pending_by_lp = [pe.pending for pe in self._pe_by_lp]
            send = _compile_send(self, pending_by_lp, processed_by_lp, far)
            for lp in self.lps:
                if far is None or not far[lp.id]:
                    lp._send = send
        handlers = self._handler_table(send)
        owned = self.owned_pes
        self._batch_by_pe = [
            _compile_batch(self, pe, processed_by_lp, handlers)
            if pe in owned
            else None
            for pe in self.pes
        ]

    def _loop_state(self) -> dict:
        """The run loop's state that outlives a round, in checkpoint form.

        Fresh from the configuration, or as a checkpoint restore grafted
        it (``_resume``, consumed here).  :meth:`_gvt_boundary` updates
        the throttle entries in place; ``rounds`` is kept current by the
        loop that owns it.
        """
        state = self._resume
        self._resume = None
        if state is None:
            state = {
                "rounds": 0,
                "eff_batch": self.cfg.batch_size,
                "eff_window": self.cfg.window,
                "last_processed": 0,
                "last_rolled": 0,
            }
        return state

    def _gvt_boundary(self, loop: dict, gvt_overhead: float) -> None:
        """What every GVT boundary does once ``self.gvt`` is known.

        Fossil-collect, charge the boundary to the makespan, update the
        optimism throttle (``loop``'s effective batch and window), sample
        metrics, consult the watchdog — over the PEs this kernel steps.
        The executive calls it after every :meth:`_gvt_point` that set a
        new GVT.
        """
        cfg = self.cfg
        gvt = self.gvt
        pes = self.owned_pes
        self.gvt_rounds += 1
        spans = self.spans
        if spans is None:
            collected = self.fossil_collect(gvt)
        else:
            t0 = spans.clock()
            collected = self.fossil_collect(gvt)
            if collected:
                spans.record("fossil", t0, spans.clock(), n=collected)
        self.makespan_units += gvt_overhead + (
            self.cost.fossil_per_event * collected / len(pes)
        )
        throttle = self.throttle
        if throttle is not None:
            processed_now = sum(pe.stats.processed for pe in pes)
            rolled_now = sum(kp.stats.events_rolled_back for kp in self.kps)
            throttle.update(
                processed_now - loop["last_processed"],
                rolled_now - loop["last_rolled"],
            )
            loop["last_processed"] = processed_now
            loop["last_rolled"] = rolled_now
            loop["eff_batch"] = throttle.scaled(cfg.batch_size, 1)
            if cfg.window is not None:
                loop["eff_window"] = throttle.scaled(
                    cfg.window, cfg.window / 64.0
                )
        if self.metrics is not None:
            # GVT estimates jump to the time horizon once the queues
            # drain; clamp so the time series stays on the run's
            # virtual-time axis.
            self._sample_metrics(self.metrics, min(gvt, cfg.end_time))
        if self.health is not None:
            # The watchdog may tighten the throttle in place; the next
            # boundary's throttle.update() folds that into the effective
            # batch / window.  Escalations raise out of run() here — a
            # quiescent point, right after fossil collection, so recovery
            # sees committed state only.
            self.health.boundary_optimistic(self)

    def _gvt_point(self, rounds: int, any_work: bool):
        """The round's GVT decision: ``None``, or ``(gvt, stop, intr)``.

        In-process, GVT is estimated every ``gvt_interval`` rounds and
        after any round that did no work.  The estimate is taken *before*
        the round's transport flush, so a fault wrapper's held messages
        really are in flight and it has to account for them
        (``transport.min_in_flight_ts``).  ``intr`` is always false here;
        a process-mode worker's wave carries it (see
        :class:`repro.mp.kernel.MPWorkerKernel`, which overrides this).
        """
        if any_work and rounds % self.cfg.gvt_interval:
            return None
        spans = self.spans
        if spans is None:
            gvt = self.gvt_manager.estimate(self)
        else:
            t0 = spans.clock()
            gvt = self.gvt_manager.estimate(self)
            spans.record("gvt", t0, spans.clock())
        return gvt, gvt >= self.cfg.end_time, False

    def _checkpoint_loop(self, loop: dict, rounds: int) -> dict:
        """The run-loop state a snapshot carries."""
        return {**loop, "rounds": rounds}

    def run(self) -> RunResult:
        """Execute the model to ``cfg.end_time`` and collect statistics."""
        self._install_fast_paths()
        with self._collector_paused():
            return self._run()

    def _run(self) -> RunResult:
        """The executive proper: rounds of PE batches between GVT boundaries.

        The one Time Warp round loop, in-process and in every process-mode
        worker alike; a worker steps only its ``owned_pes`` and overrides
        :meth:`_loop_state`, :meth:`_gvt_point` and :meth:`_checkpoint_loop`.
        """
        cfg = self.cfg
        end = cfg.end_time
        if self._resume is None:
            # Bootstrap: LPs schedule their initial events "at startup".
            # Only the LPs this kernel steps: a worker holds the whole
            # population (fork inherits it), so seeding every LP would
            # duplicate each initial event once per worker.  Each
            # ``on_init`` runs as if its LP's event were executing, so
            # the send reads its source from ``_current_event``; nothing
            # rolls a bootstrap send back, so its journal is dropped.
            boot = self._current_event = _Bootstrap()
            far = self._far_by_lp
            for lp in self.lps:
                if far is None or not far[lp.id]:
                    boot.dst = lp.id
                    boot.sent = []
                    lp._now = -1.0
                    lp.on_init()
            self._current_event = None

        pes = self.owned_pes
        step_pe = self._batch_by_pe
        stats_by_pe = [pe.stats for pe in pes]
        sched_per_round = self.cost.sched_per_round
        gvt_overhead = max(
            self.cost.gvt_overhead(pe.lp_count, len(pe.kp_ids)) for pe in pes
        )
        metrics = self.metrics
        faults = self.faults
        spans = self.spans
        clock = spans.clock if spans is not None else None
        ckpt = self.ckpt
        paranoid = cfg.paranoid
        if paranoid:
            from repro.core.invariants import check_optimistic
        loop = self._loop_state()
        rounds = loop["rounds"]
        eff_batch = loop["eff_batch"]
        eff_window = loop["eff_window"]
        prev_gvt = self.gvt
        while True:
            # Optimism limit: the end barrier, tightened to GVT + window in
            # virtual-time-window mode.
            if eff_window is not None:
                limit = min(end, self.gvt + eff_window)
            else:
                limit = end
            any_work = False
            for st in stats_by_pe:
                st.round_busy = 0.0
            for pe in pes:
                if faults is not None and faults.stalled(pe.id, rounds):
                    # Straggler injection: this PE executes nothing this
                    # round.  Safe at any point — Time Warp absorbs the
                    # reordering, and GVT cannot pass the stalled PE's
                    # pending events — and stall windows are finite, so
                    # the run still terminates.
                    continue
                if spans is None:
                    done = step_pe[pe.id](eff_batch, limit)
                else:
                    # One span per optimism batch: includes any rollbacks
                    # the batch's own sends triggered mid-loop (those also
                    # record their own nested "rollback" spans).
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
            point = self._gvt_point(rounds, any_work)
            if point is not None:
                self.gvt, stop, intr = point
                self._gvt_boundary(loop, gvt_overhead)
                eff_batch = loop["eff_batch"]
                eff_window = loop["eff_window"]
                if paranoid:
                    check_optimistic(self, prev_gvt)
                    prev_gvt = self.gvt
                if intr:
                    # Every worker stops at this same wave, after the
                    # checkpoint below writes its final shard: the shard
                    # set stays resumable as a unit.
                    if ckpt is None:
                        raise KeyboardInterrupt
                    ckpt.request_interrupt()
                elif stop:
                    break
            if spans is None or self._direct:
                # Immediate transport has nothing to flush; don't time the
                # no-op.
                self.transport.flush()
            else:
                t0 = clock()
                delivered = self.transport.flush()
                if delivered:
                    spans.record("transport", t0, clock(), n=delivered)
            if ckpt is not None and point is not None:
                # After the flush, so nothing is in flight but a fault
                # wrapper's still-held events, and those are captured.
                # An interrupted checkpointer writes and then raises
                # KeyboardInterrupt.
                written_before = ckpt.written
                t0 = clock() if spans is not None else 0.0
                ckpt.boundary(self, lambda: self._checkpoint_loop(loop, rounds))
                if spans is not None and ckpt.written > written_before:
                    spans.record("snapshot", t0, clock())

        # Everything below the end barrier is final: commit it all.
        self.fossil_collect(TIME_HORIZON)
        if metrics is not None:
            self._sample_metrics(metrics, end)
        return self._build_result(rounds)

    # ------------------------------------------------------------------
    def _build_result(self, rounds: int) -> RunResult:
        stats = RunStats(engine=self.kind)
        cfg = self.cfg
        stats.n_pes = cfg.n_pes
        stats.n_kps = cfg.n_kps
        stats.processed = sum(pe.stats.processed for pe in self.pes)
        stats.events_rolled_back = sum(kp.stats.events_rolled_back for kp in self.kps)
        stats.rollbacks = sum(kp.stats.rollbacks for kp in self.kps)
        stats.false_rollback_events = sum(
            kp.stats.false_rollback_events for kp in self.kps
        )
        stats.stragglers = sum(pe.stats.stragglers for pe in self.pes)
        stats.cancelled_direct = self.cancelled_direct
        stats.cancelled_via_rollback = self.cancelled_via_rollback
        if self.throttle is not None:
            stats.throttle_adjustments = self.throttle.adjustments
            stats.throttle_final_factor = self.throttle.factor
        stats.local_sends = sum(pe.stats.local_sends for pe in self.pes)
        stats.remote_sends = sum(pe.stats.remote_sends for pe in self.pes)
        stats.gvt_rounds = self.gvt_rounds
        stats.fossil_collected = self.fossil_collected
        stats.peak_pending = self.peak_pending
        stats.peak_processed = self.peak_processed
        stats.pool_hits = self.pool.hits
        stats.pool_allocs = self.pool.allocs
        stats.committed = self.fossil_collected
        stats.makespan_seconds = self.cost.seconds(self.makespan_units)
        stats.total_busy_seconds = self.cost.seconds(
            sum(pe.stats.busy for pe in self.pes)
        )
        stats.per_pe_busy_seconds = [
            self.cost.seconds(pe.stats.busy) for pe in self.pes
        ]
        if self.faults is not None:
            ft = self.faults.transport
            if ft is not None:
                stats.transport_dropped = ft.dropped
                stats.transport_duplicated = ft.duplicated
                stats.transport_delayed = ft.delayed
            stats.pe_stall_rounds = self.faults.stall_rounds
        stats.event_rate = (
            stats.committed / stats.makespan_seconds if stats.makespan_seconds else 0.0
        )
        model_stats = self.model.collect_stats(self.lps)
        return RunResult(model_stats=model_stats, run=stats, lps=self.lps)


def run_optimistic(
    model: Model,
    config: EngineConfig,
    *,
    tracer=None,
    metrics=None,
    spans=None,
    faults=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Convenience wrapper: build a kernel, attach telemetry, run it."""
    if config.procs > 1:
        # True multicore: every caller of the optimistic engine — the CLI,
        # experiments, scenarios — reaches process mode through this one
        # chokepoint.
        from repro.mp.runtime import run_multiprocess

        return run_multiprocess(
            model,
            config,
            tracer=tracer,
            metrics=metrics,
            spans=spans,
            faults=faults,
            checkpointer=checkpointer,
            health=health,
        )
    return TimeWarpKernel(model, config).attach_hooks(
        tracer=tracer, metrics=metrics, spans=spans, faults=faults,
        health=health, checkpointer=checkpointer,
    ).run()
