"""The sequential discrete-event engine — the correctness oracle.

"It is important to validate the results of the parallel simulation with
the results of the sequential simulation.  Consequently, the only way for
the results of the parallel simulation to match the sequential model is for
the parallel model to be deterministic." (§4.2.1)

This engine shares the model API (:class:`~repro.core.lp.LogicalProcess`,
:class:`~repro.core.lp.Model`) but none of the Time Warp machinery: one
heap, events executed strictly in key order, no rollback paths at all.
Its committed results define what every optimistic configuration must
reproduce bit-for-bit.

Cost accounting mirrors Fig 5's "1 Processor" line: events are charged the
cost-model's per-event cost (with the full LP population's cache factor)
plus local send costs — no GVT, fossil or rollback overhead, because a
sequential simulator has none.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.event import Event
from repro.core.executor import Executor
from repro.core.lp import LogicalProcess, Model
from repro.core.queue import PendingQueue
from repro.core.result import RunResult
from repro.core.stats import RunStats
from repro.errors import ConfigurationError

__all__ = ["SequentialEngine", "run_sequential"]


class SequentialEngine(Executor):
    """Classic single-heap discrete-event simulator."""

    kind = "sequential"

    def __init__(
        self,
        model: Model,
        end_time: float,
        *,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
        paranoid: bool = False,
    ) -> None:
        if end_time <= 0:
            raise ConfigurationError(f"end_time must be positive, got {end_time}")
        self.end_time = end_time
        self.seed = seed
        self.paranoid = paranoid
        self.cost = cost if cost is not None else CostModel()
        self._init_population(model)
        self.pending = PendingQueue()
        self.sends = 0
        #: Why the last :meth:`run` did not use the model's band program
        #: ("" when it did, or the model has none to offer).
        self.band_decline = ""
        #: Optional event tracer (see repro.core.trace); in a sequential
        #: run every executed event commits immediately.
        self.tracer = None
        #: Optional metrics recorder (see repro.obs.metrics).  A
        #: sequential run has no GVT rounds, so the recorder's
        #: ``interval`` (in events) paces the samples; when detached the
        #: run loop is the exact allocation-free loop from before.
        self.metrics = None
        #: Optional span tracer (see repro.obs.spans).  No rounds here
        #: either, so one ``exec`` span covers every ``spans.interval``
        #: events; detached, the run loop is the exact fast loop.
        self.spans = None
        #: Optional checkpointer (see repro.ckpt); consulted every
        #: ``ckpt.seq_events`` commits, never per event.
        self.ckpt = None
        #: Optional liveness watchdog (see repro.health); consulted at
        #: the same event-interval boundaries as the checkpointer.
        self.health = None
        #: Run-loop state grafted by a checkpoint restore; consumed (and
        #: cleared) at the top of :meth:`run`.
        self._resume = None
        #: Event recycling: a committed event is dead the moment its
        #: ``commit`` hook returns (sequential execution never rolls back),
        #: so it goes straight back to the free list.
        self._bind_lps(seed, self._init_pool())

    def _sample_metrics(
        self, recorder, now: float, processed: int, pending: int | None = None
    ) -> None:
        """Feed the recorder one sample (sequential: commit == execute)."""
        recorder.sample(
            gvt=now,
            committed=processed,
            processed=processed,
            fossil_collected=processed,
            pending=len(self.pending) if pending is None else pending,
            pool_hit_rate=self.pool.hit_rate,
        )

    def _emit(self, src_lp: LogicalProcess, ev: Event) -> None:
        self.sends += 1
        self.pending.push(ev)

    def schedule(self, ev: Event) -> None:
        """Executor ABI: bare enqueue into the single pending heap."""
        self.pending.push(ev)

    def _band_program(self, resumed: bool):
        """The model's band program if this run may use it, else None.

        A band program (:meth:`~repro.core.lp.Model.band_program`) steps
        whole bands of events without building them, so it is declined
        whenever something attached must see, or stop between, single
        events.  The choice is made from what the engine can observe —
        there is no option for it — and every decline leaves its reason
        in ``band_decline`` for :class:`~repro.core.stats.RunStats`.
        """
        offer = self.model.band_program()
        if offer is None:
            why = self.model.band_decline_reason
        elif self.tracer is not None:
            why = "tracer attached (it records every event)"
        elif self.ckpt is not None:
            why = "checkpointer attached (it snapshots between events)"
        elif self.health is not None:
            why = "watchdog attached (it inspects the pending events)"
        elif self.paranoid:
            why = "paranoid invariant checks on (they inspect the pending events)"
        elif resumed:
            why = "resumed snapshot (it may restart inside a band)"
        else:
            why = ""
        self.band_decline = why
        return None if why else offer

    def run(self) -> RunResult:
        """Execute to the end barrier and collect statistics.

        Two ways to get there.  The per-event loop below — pop the
        minimum key, run the model's handler for its kind (or
        ``forward``), ``commit`` — is the reference every other engine
        is compared against; it has a bare copy and a general one that
        also paces metrics, spans, checkpoints, the watchdog and the
        paranoid checks.  A model may also offer a
        *band program*; when nothing attached needs single events (see
        :meth:`_band_program`) the loop stops at the program's start time
        and the program runs the rest, reporting after each band so
        metric samples and ``exec`` spans keep their event-count pacing
        at band granularity.
        """
        with self._collector_paused():
            return self._run()

    def _run(self) -> RunResult:
        """The body of :meth:`run`."""
        resume = self._resume
        if resume is None:
            for lp in self.lps:
                lp._now = -1.0
                lp.on_init()

        lps = self.lps
        handler_for = self._handler_table().get
        pop_below = self.pending.pop_below
        end = self.end_time
        band_start, program = self._band_program(resume is not None) or (end, None)
        # Where the per-event loop stops: the barrier, or the hand-over.
        limit = min(end, band_start)
        tracer = self.tracer
        release = self.pool.release
        metrics = self.metrics
        spans = self.spans
        ckpt = self.ckpt
        health = self.health
        processed = 0
        if resume is not None:
            processed = resume["processed"]
            self._resume = None
        if (
            metrics is None
            and spans is None
            and ckpt is None
            and health is None
            and not self.paranoid
        ):
            while True:
                ev = pop_below(limit)
                if ev is None:
                    break
                dst = ev.dst
                lp = lps[dst]
                lp._now = ev.key.ts
                handler = handler_for(ev.kind)
                if handler is None:
                    lp.forward(ev)
                else:
                    handler(ev, dst, lp.rng)
                lp.commit(ev)
                processed += 1
                if tracer is not None:
                    tracer.on_exec(ev)
                    tracer.on_commit(ev)
                release(ev)
            if limit < end:
                for _, processed, _ in program(self, processed):
                    pass
        else:
            # Metrics, spans, checkpointing and/or paranoid checks: a
            # metric sample every ``metrics.interval`` events and one at
            # the barrier, an ``exec`` span every ``spans.interval``
            # events and a boundary every ``seq_events`` commits.  Pacing
            # is anchored to absolute commit counts so a resumed run hits
            # the same boundaries as the uninterrupted one.
            from repro.core.invariants import check_sequential

            interval = metrics.interval if metrics is not None else 0
            next_sample = (
                (processed // interval + 1) * interval
                if metrics is not None
                else -1
            )
            sinterval = spans.interval if spans is not None else 0
            next_span = (
                (processed // sinterval + 1) * sinterval
                if spans is not None
                else -1
            )
            span_t0 = spans.clock() if spans is not None else 0.0
            span_base = processed
            bstep = ckpt.seq_events if ckpt is not None else 1024
            next_boundary = (processed // bstep + 1) * bstep
            paranoid = self.paranoid
            while True:
                ev = pop_below(limit)
                if ev is None:
                    break
                dst = ev.dst
                lp = lps[dst]
                now = ev.key.ts
                lp._now = now
                handler = handler_for(ev.kind)
                if handler is None:
                    lp.forward(ev)
                else:
                    handler(ev, dst, lp.rng)
                lp.commit(ev)
                processed += 1
                if tracer is not None:
                    tracer.on_exec(ev)
                    tracer.on_commit(ev)
                release(ev)
                if metrics is not None and processed >= next_sample:
                    next_sample += interval
                    self._sample_metrics(metrics, now, processed)
                if spans is not None and processed >= next_span:
                    next_span += sinterval
                    t1 = spans.clock()
                    spans.record(
                        "exec", span_t0, t1, pe=0, n=processed - span_base
                    )
                    span_t0 = t1
                    span_base = processed
                if processed >= next_boundary:
                    next_boundary += bstep
                    if paranoid:
                        check_sequential(self, now)
                    if health is not None:
                        health.boundary_sequential(self, now)
                    if ckpt is not None:
                        written_before = ckpt.written
                        t0 = spans.clock() if spans is not None else 0.0
                        ckpt.boundary(self, {"processed": processed})
                        if spans is not None and ckpt.written > written_before:
                            spans.record("snapshot", t0, spans.clock())
            if limit < end:
                # The band program: at most one sample and one ``exec``
                # span per band, on the same event-count pacing.
                for now, processed, in_flight in program(self, processed):
                    if metrics is not None and processed >= next_sample:
                        next_sample = (processed // interval + 1) * interval
                        self._sample_metrics(metrics, now, processed, in_flight)
                    if spans is not None and processed >= next_span:
                        next_span = (processed // sinterval + 1) * sinterval
                        t1 = spans.clock()
                        spans.record(
                            "exec", span_t0, t1, pe=0, n=processed - span_base
                        )
                        span_t0 = t1
                        span_base = processed
            if metrics is not None:
                self._sample_metrics(metrics, end, processed)
            if spans is not None and processed > span_base:
                spans.record(
                    "exec",
                    span_t0,
                    spans.clock(),
                    pe=0,
                    n=processed - span_base,
                )

        stats = RunStats(engine="sequential", n_pes=1, n_kps=1)
        stats.band_decline_reason = self.band_decline
        stats.processed = processed
        stats.committed = processed
        stats.local_sends = self.sends
        stats.pool_hits = self.pool.hits
        stats.pool_allocs = self.pool.allocs
        n_lps = len(lps)
        busy_units = processed * self.cost.event_cost(n_lps) + (
            self.sends * self.cost.local_send
        )
        stats.makespan_seconds = self.cost.seconds(busy_units)
        stats.total_busy_seconds = stats.makespan_seconds
        stats.per_pe_busy_seconds = [stats.makespan_seconds]
        stats.event_rate = (
            stats.committed / stats.makespan_seconds if stats.makespan_seconds else 0.0
        )
        model_stats = self.model.collect_stats(lps)
        return RunResult(model_stats=model_stats, run=stats, lps=lps)


def run_sequential(
    model: Model,
    end_time: float,
    *,
    seed: int = 0x5EED,
    cost: CostModel | None = None,
    paranoid: bool = False,
    tracer=None,
    metrics=None,
    spans=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Convenience wrapper: build a sequential engine, attach telemetry, run."""
    engine = SequentialEngine(
        model,
        end_time,
        seed=seed,
        cost=cost,
        paranoid=paranoid,
    )
    if tracer is not None:
        engine.attach_tracer(tracer)
    if metrics is not None:
        engine.attach_metrics(metrics)
    if spans is not None:
        engine.attach_spans(spans)
    if health is not None:
        engine.attach_health(health)
    if checkpointer is not None:
        engine.attach_checkpointer(checkpointer)
    return engine.run()
