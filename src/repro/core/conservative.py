"""Conservative parallel simulation — the other half of PDES.

Time Warp lets PEs race ahead and repairs mistakes; *conservative*
synchronization never makes them: a PE only executes an event once no
earlier message can possibly arrive.  The price is **lookahead** — a model
guarantee that an event at time ``t`` never schedules anything before
``t + L`` — and synchronization rounds.  The protocol is **YAWNS**:
barrier rounds in which all PEs agree on the lower bound on time stamp
LBTS = min(next unprocessed event) + L and execute everything below it.
This is what ROSS's conservative mode does.

Because execution is conservative, nothing ever rolls back, so the model's
``reverse`` handlers are never called (models without reverse handlers can
run conservatively).  Committed results are — of course — identical to the
sequential oracle's; the test suite checks that.

Lookahead is declared by the model (``Model.lookahead``) or passed
explicitly, and *enforced*: a send that violates it raises
:class:`~repro.errors.SchedulingError`, because a lookahead lie silently
corrupts a conservative simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import CostModel
from repro.core.event import Event
from repro.core.executor import Executor
from repro.core.invariants import check_conservative
from repro.core.lp import LogicalProcess, Model
from repro.core.mapping import build_mapping, check_mapping_strategy
from repro.core.queue import PendingQueue
from repro.core.result import RunResult
from repro.core.stats import RunStats
from repro.errors import ConfigurationError, SchedulingError
from repro.vt.time import TIME_HORIZON

__all__ = ["ConservativeConfig", "ConservativeKernel", "run_conservative"]


@dataclass(frozen=True)
class ConservativeConfig:
    """Configuration for a conservative run.

    Attributes
    ----------
    end_time:
        Virtual-time barrier (exclusive), as in the other engines.
    n_pes:
        Simulated processors.
    lookahead:
        Minimum send offset the model guarantees; ``None`` reads
        ``model.lookahead``.
    mapping:
        LP→PE mapping strategy (``"block"``/``"striped"``/``"random"``).
    paranoid:
        Run the opt-in invariant checks (:mod:`repro.core.invariants`)
        each scheduler round; off by default.
    """

    end_time: float
    n_pes: int = 4
    lookahead: float | None = None
    mapping: str = "block"
    seed: int = 0x5EED
    paranoid: bool = False
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.end_time <= 0:
            raise ConfigurationError(f"end_time must be positive, got {self.end_time}")
        if self.n_pes < 1:
            raise ConfigurationError(f"n_pes must be >= 1, got {self.n_pes}")
        if self.lookahead is not None and self.lookahead <= 0:
            raise ConfigurationError(
                f"lookahead must be positive, got {self.lookahead}"
            )
        check_mapping_strategy(self.mapping)


class _ConsPE:
    """Conservative processing element: a pending queue plus counters."""

    __slots__ = ("id", "pending", "processed", "lp_count", "busy")

    def __init__(self, pe_id: int) -> None:
        self.id = pe_id
        self.pending = PendingQueue()
        self.processed = 0
        self.lp_count = 0
        self.busy = 0.0

    def next_ts(self) -> float:
        key = self.pending.peek_key()
        return key.ts if key is not None else TIME_HORIZON


class ConservativeKernel(Executor):
    """Conservative engine over the shared model API."""

    kind = "conservative"

    def __init__(self, model: Model, config: ConservativeConfig) -> None:
        self.cfg = config
        self.cost = config.cost
        lookahead = (
            config.lookahead
            if config.lookahead is not None
            else getattr(model, "lookahead", None)
        )
        if lookahead is None or lookahead <= 0:
            raise ConfigurationError(
                "conservative execution needs positive lookahead: pass "
                "ConservativeConfig(lookahead=...) or define model.lookahead"
            )
        self.lookahead = float(lookahead)

        self._init_population(model)
        n_lps = len(self.lps)
        mapping = build_mapping(
            n_lps,
            config.n_pes,
            config.n_pes,
            config.mapping,
            grid=getattr(model, "grid", None),
            seed=config.seed,
        )
        self.pes = [_ConsPE(p) for p in range(config.n_pes)]
        self.pe_of_lp = [mapping.lp_to_pe(lp.id) for lp in self.lps]
        for lp in self.lps:
            self.pes[self.pe_of_lp[lp.id]].lp_count += 1
        #: Conservative execution commits every event as it runs, so the
        #: same commit-time recycling as the sequential engine applies.
        self._bind_lps(config.seed, self._init_pool())
        # Counters.
        self.real_messages = 0
        self.local_sends = 0
        self.rounds = 0
        self.makespan_units = 0.0
        #: Optional event tracer (see repro.core.trace); conservative
        #: execution commits as it runs, so on_exec/on_commit fire as a
        #: pair for every event.
        self.tracer = None
        #: Optional metrics recorder (see repro.obs.metrics), sampled
        #: once per scheduler round — the conservative analog of a GVT
        #: round.  Costs nothing when detached.
        self.metrics = None
        #: Optional span tracer (see repro.obs.spans): one ``exec`` span
        #: per PE per scheduler round (plus ``snapshot`` spans when a
        #: checkpointer writes).  Costs nothing when detached.
        self.spans = None
        #: Optional repro.faults.EngineFaults driver.  Conservative
        #: execution has no transport layer to wrap, so only PE stalls
        #: apply here: a stalled PE simply sits out scheduler rounds.
        #: Deferral is harmless — events execute at the same virtual
        #: times in the same per-PE order, so committed results are
        #: unchanged (the stall only costs wall-clock rounds).
        self.faults = None
        #: Optional checkpointer (see repro.ckpt); consulted once per
        #: scheduler round (the conservative boundary: every executed
        #: event is already committed).
        self.ckpt = None
        #: Optional liveness watchdog (see repro.health); consulted once
        #: per scheduler round, like metrics and the checkpointer.
        self.health = None
        #: Run-loop state grafted by a checkpoint restore; consumed (and
        #: cleared) at the top of :meth:`run`.
        self._resume = None
        self._bootstrapping = True
        self._event_costs = [
            self.cost.event_cost(n_lps)
            * self.cost.bus_factor(config.n_pes, n_lps)
            for _ in self.pes
        ]

    # ------------------------------------------------------------------
    def _emit(self, src_lp: LogicalProcess, ev) -> None:
        src_pe = self.pe_of_lp[src_lp.id]
        dst_pe = self.pe_of_lp[ev.dst]
        if not self._bootstrapping and src_pe != dst_pe:
            # Lookahead applies to the messages channels carry — cross-PE
            # sends.  Local work (e.g. a server's own completion events)
            # may be arbitrarily close in time; the PE's own queue orders
            # it.  Small epsilon for float noise.
            if ev.key.ts < src_lp._now + self.lookahead - 1e-12:
                raise SchedulingError(
                    f"LP {src_lp.id} violated its lookahead: sent ts="
                    f"{ev.key.ts} to another PE from now={src_lp._now} "
                    f"with lookahead {self.lookahead}"
                )
        pe = self.pes[src_pe]
        if src_pe == dst_pe:
            self.local_sends += 1
            pe.busy += self.cost.local_send
        else:
            self.real_messages += 1
            pe.busy += self.cost.remote_send
        self.pes[dst_pe].pending.push(ev)

    def schedule(self, ev: Event) -> None:
        """Executor ABI: bare enqueue at the destination LP's PE."""
        self.pes[self.pe_of_lp[ev.dst]].pending.push(ev)

    # ------------------------------------------------------------------
    def attach_faults(self, driver) -> "ConservativeKernel":
        """Attach a :class:`repro.faults.EngineFaults` driver; returns self."""
        self.faults = driver
        driver.install(self)
        return self

    def _sample_metrics(self, recorder) -> None:
        """Feed the recorder one per-round sample (commit == execute)."""
        pes = self.pes
        processed = sum(pe.processed for pe in pes)
        horizon = min(min(pe.next_ts() for pe in pes), self.cfg.end_time)
        recorder.sample(
            gvt=horizon,
            committed=processed,
            processed=processed,
            fossil_collected=processed,
            pending=sum(len(pe.pending) for pe in pes),
            pool_hit_rate=self.pool.hit_rate,
        )

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        for lp in self.lps:
            lp._now = -1.0
            lp.on_init()
        self._bootstrapping = False

    def _execute_below(self, pe: _ConsPE, horizon: float) -> int:
        """Run every pending event strictly below ``horizon``."""
        done = 0
        cost = self._event_costs[pe.id]
        pop_below = pe.pending.pop_below
        lps = self.lps
        release = self.pool.release
        tracer = self.tracer
        handler_for = self._handler_for
        while True:
            ev = pop_below(horizon)
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
            done += 1
            if tracer is not None:
                tracer.on_exec(ev)
                tracer.on_commit(ev)
            release(ev)
        pe.busy += done * cost
        pe.processed += done
        return done

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the model to the end barrier and collect statistics."""
        self._handler_for = self._handler_table().get
        with self._collector_paused():
            if self._resume is None:
                self._bootstrap()
            else:
                self._resume = None
            self._run_yawns()
            return self._build_result()

    def _run_yawns(self) -> None:
        end = self.cfg.end_time
        pes = self.pes
        faults = self.faults
        spans = self.spans
        ckpt = self.ckpt
        paranoid = self.cfg.paranoid
        overhead = self.cost.gvt_per_pe  # one barrier reduction per round
        while True:
            lbts = min(pe.next_ts() for pe in pes) + self.lookahead
            horizon = min(lbts, end)
            if min(pe.next_ts() for pe in pes) >= end:
                break
            round_busy = 0.0
            for pe in pes:
                if faults is not None and faults.stalled(pe.id, self.rounds):
                    # A stalled PE sits the round out; its pending events
                    # keep LBTS honest, so peers never outrun it and the
                    # deferred work runs (identically) once the stall ends.
                    continue
                pe.busy, before = 0.0, pe.busy
                if spans is None:
                    self._execute_below(pe, horizon)
                else:
                    t0 = spans.clock()
                    done = self._execute_below(pe, horizon)
                    if done:
                        spans.record("exec", t0, spans.clock(), pe=pe.id, n=done)
                round_cost = pe.busy
                pe.busy += before
                round_busy = max(round_busy, round_cost)
            self.rounds += 1
            self.makespan_units += round_busy + overhead
            if self.metrics is not None:
                self._sample_metrics(self.metrics)
            if paranoid:
                check_conservative(self)
            if self.health is not None:
                self.health.boundary_conservative(self)
            if ckpt is not None:
                self._ckpt_boundary(ckpt, spans)

    def _ckpt_boundary(self, ckpt, spans) -> None:
        """One checkpoint boundary, timed as a ``snapshot`` span if taken."""
        if spans is None:
            ckpt.boundary(self)
            return
        written_before = ckpt.written
        t0 = spans.clock()
        ckpt.boundary(self)
        if ckpt.written > written_before:
            spans.record("snapshot", t0, spans.clock())

    # ------------------------------------------------------------------
    def _build_result(self) -> RunResult:
        stats = RunStats(engine="conservative")
        stats.n_pes = self.cfg.n_pes
        stats.n_kps = self.cfg.n_pes
        stats.processed = sum(pe.processed for pe in self.pes)
        stats.committed = stats.processed  # nothing ever rolls back
        stats.local_sends = self.local_sends
        stats.remote_sends = self.real_messages
        stats.gvt_rounds = self.rounds
        stats.pool_hits = self.pool.hits
        stats.pool_allocs = self.pool.allocs
        stats.makespan_seconds = self.cost.seconds(self.makespan_units)
        stats.total_busy_seconds = self.cost.seconds(
            sum(pe.busy for pe in self.pes)
        )
        stats.per_pe_busy_seconds = [
            self.cost.seconds(pe.busy) for pe in self.pes
        ]
        stats.event_rate = (
            stats.committed / stats.makespan_seconds
            if stats.makespan_seconds
            else 0.0
        )
        if self.faults is not None:
            stats.pe_stall_rounds = self.faults.stall_rounds
        return RunResult(
            model_stats=self.model.collect_stats(self.lps),
            run=stats,
            lps=self.lps,
        )


def run_conservative(
    model: Model,
    config: ConservativeConfig,
    *,
    tracer=None,
    metrics=None,
    spans=None,
    faults=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Convenience wrapper: build a conservative kernel, attach telemetry, run."""
    kernel = ConservativeKernel(model, config)
    if tracer is not None:
        kernel.attach_tracer(tracer)
    if metrics is not None:
        kernel.attach_metrics(metrics)
    if spans is not None:
        kernel.attach_spans(spans)
    if faults is not None:
        kernel.attach_faults(faults)
    if health is not None:
        kernel.attach_health(health)
    if checkpointer is not None:
        kernel.attach_checkpointer(checkpointer)
    return kernel.run()
