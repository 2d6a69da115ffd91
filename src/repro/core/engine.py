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
        self._queue = PendingQueue()
        #: The run's final in-flight set, when a band program left it
        #: unbuilt: a callable returning its events (see ``pending``).
        self._unbuilt = None
        self.sends = 0
        #: Optional event tracer (see repro.core.trace); in a sequential
        #: run every executed event commits immediately.
        self.tracer = None
        #: Optional metrics recorder (see repro.obs.metrics).  A
        #: sequential run has no GVT rounds, so the recorder's
        #: ``interval`` (in events) paces the samples.
        self.metrics = None
        #: Optional span tracer (see repro.obs.spans).  No rounds here
        #: either, so one ``exec`` span covers every ``spans.interval``
        #: events.
        self.spans = None
        #: Optional checkpointer (see repro.ckpt); consulted at boundaries
        #: (every ``ckpt.seq_events`` commits of the per-event loop, every
        #: step end of a band program), never per event.
        self.ckpt = None
        #: Optional liveness watchdog (see repro.health); consulted at
        #: the same boundaries as the checkpointer.
        self.health = None
        #: Run-loop state grafted by a checkpoint restore; consumed (and
        #: cleared) at the top of :meth:`run`.
        self._resume = None
        #: Event recycling: a committed event is dead the moment its
        #: ``commit`` hook returns (sequential execution never rolls back),
        #: so it goes straight back to the free list.
        self._bind_lps(seed, self._init_pool())

    @property
    def pending(self) -> PendingQueue:
        """The pending heap: the events in flight.

        A band program may leave the run's final in-flight set unbuilt
        (:meth:`defer_pending`); the first read builds it, so a run that
        nobody inspects afterwards never turns its packets into events.
        The per-event loop and the sends go to the heap directly."""
        unbuilt = self._unbuilt
        if unbuilt is not None:
            self._unbuilt = None
            self._queue.extend(unbuilt())
        return self._queue

    def defer_pending(self, build) -> None:
        """Leave the run's final in-flight set unbuilt: ``build()``
        returns its events, and :attr:`pending` calls it on first read.
        For a band program leaving at ``end_time``, when nothing runs
        after it."""
        self._unbuilt = build

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
        self._queue.push(ev)

    def schedule(self, ev: Event) -> None:
        """Executor ABI: bare enqueue into the single pending heap."""
        self._queue.push(ev)

    def run(self) -> RunResult:
        """Execute to the end barrier and collect statistics.

        The per-event loop — pop the minimum key, run the model's handler
        for its kind (or ``forward``), ``commit`` — is the reference every
        other engine is compared against.  A model may also offer a *band
        program* (:meth:`~repro.core.lp.Model.band_program`): the loop
        then stops at the program's start time and the program runs the
        rest, reporting after each band so metric samples and ``exec``
        spans keep their event-count pacing at band granularity.  (The
        hot-potato program starts at 0.0 and runs every event.)

        The paranoid checks, the watchdog and the checkpointer are
        consulted at boundaries only: every ``seq_events`` commits of the
        per-event loop, and every step end of the band program, which
        leaves there (LP state written back, what is in flight pushed as
        ordinary events), so the hooks see the per-event loop's state,
        and re-enters at the next step.  At the run's end the program
        leaves what is in flight unbuilt (:attr:`pending` builds it when
        read), and the final metric sample takes its in-flight count from
        the program's last report.
        """
        with self._collector_paused():
            return self._run()

    def _run(self) -> RunResult:
        """The body of :meth:`run`."""
        resume = self._resume
        self._resume = None
        if resume is None:
            resume = {}
            for lp in self.lps:
                lp._now = -1.0
                lp.on_init()

        lps = self.lps
        pop_below = self._queue.pop_below
        release = self.pool.release
        end = self.end_time
        band_start, program = self.model.band_program() or (end, None)
        tracer = self.tracer
        metrics = self.metrics
        spans = self.spans
        ckpt = self.ckpt
        health = self.health
        paranoid = self.paranoid
        if paranoid:
            from repro.core.invariants import check_sequential
        processed = resume.get("processed", 0)
        # Pacing is anchored to absolute commit counts, so a resumed run
        # samples and stops where the uninterrupted one does.
        never = float("inf")
        interval = metrics.interval if metrics is not None else 0
        next_sample = (
            (processed // interval + 1) * interval if metrics is not None else never
        )
        sinterval = spans.interval if spans is not None else 0
        next_span = (
            (processed // sinterval + 1) * sinterval if spans is not None else never
        )
        span_t0 = spans.clock() if spans is not None else 0.0
        span_base = processed
        hooked = paranoid or health is not None or ckpt is not None
        bstep = ckpt.seq_events if ckpt is not None else 1024
        next_boundary = (processed // bstep + 1) * bstep if hooked else never

        def pace(now, processed, pending=None):
            """A metric sample and/or an ``exec`` span, if one is due;
            returns the commit count at which the next one is."""
            nonlocal next_sample, next_span, span_t0, span_base
            if processed >= next_sample:
                next_sample = (processed // interval + 1) * interval
                self._sample_metrics(metrics, now, processed, pending)
            if processed >= next_span:
                next_span = (processed // sinterval + 1) * sinterval
                t1 = spans.clock()
                spans.record("exec", span_t0, t1, pe=0, n=processed - span_base)
                span_t0 = t1
                span_base = processed
            return min(next_sample, next_span)

        def boundary(now, loop):
            """Consult the paranoid checks, the watchdog and the
            checkpointer (which may snapshot ``loop`` and the engine)."""
            if paranoid:
                check_sequential(self, now)
            if health is not None:
                health.boundary_sequential(self, now)
            if ckpt is not None:
                written_before = ckpt.written
                t0 = spans.clock() if spans is not None else 0.0
                ckpt.boundary(self, loop)
                if spans is not None and ckpt.written > written_before:
                    spans.record("snapshot", t0, spans.clock())

        next_pace = min(next_sample, next_span)
        next_check = min(next_pace, next_boundary)  # one test per event
        # Where the per-event loop stops: the barrier, or the hand-over.
        limit = min(end, band_start)
        ev = pop_below(limit)
        # The handler table only if this loop runs an event: a band
        # program that starts at 0.0 runs every event itself.
        handler_for = self._handler_table().get if ev is not None else None
        while ev is not None:
            dst = ev.dst
            lp = lps[dst]
            now = lp._now = ev.key.ts
            # A fresh journal per execution (no ``sent``: nothing rolls back).
            ev.saved = {}
            self._current_event = ev
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
            if processed >= next_check:
                if processed >= next_pace:
                    next_pace = pace(now, processed)
                if processed >= next_boundary:
                    next_boundary += bstep
                    boundary(now, {"processed": processed})
                next_check = min(next_pace, next_boundary)
            ev = pop_below(limit)
        self._current_event = None

        in_flight = None  # as the band program last reported it
        if limit < end:
            # The band program, from the hand-over or the snapshot's step.
            # With a hook attached it is run one step at a time.
            step = resume.get("step", int(band_start))
            while True:
                stop = min(float(step + 1), end) if hooked else end
                for now, processed, in_flight in program(self, processed, step, stop):
                    if processed >= next_pace:
                        next_pace = pace(now, processed, in_flight)
                if stop == end:
                    break
                step += 1
                boundary(stop, {"processed": processed, "step": step})
        if metrics is not None:
            self._sample_metrics(metrics, end, processed, in_flight)
        if spans is not None and processed > span_base:
            spans.record(
                "exec", span_t0, spans.clock(), pe=0, n=processed - span_base
            )

        stats = RunStats(engine="sequential", n_pes=1, n_kps=1)
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
    return SequentialEngine(
        model,
        end_time,
        seed=seed,
        cost=cost,
        paranoid=paranoid,
    ).attach_hooks(
        tracer=tracer, metrics=metrics, spans=spans, health=health,
        checkpointer=checkpointer,
    ).run()
