"""The liveness watchdog: boundary-rate detectors over a running engine.

The paper's central claim is that hot-potato routing stays live without
flow control; Faber's livelock-free schemes give the correctness foil —
an *absolute upper bound* on packet delivery time that a healthy run
must respect.  This module is the runtime half of that argument: a
:class:`Watchdog` attached through the Executor ABI
(``engine.attach_health(wd)``) watches a run for the four ways a
simulation goes sick and escalates through a degradation ladder when one
trips.

Detectors (all evaluated at GVT / scheduler-round / event-interval
*boundaries*, never on the per-event path — a detached watchdog costs
nothing and an attached one keeps the fused fast paths installed):

* **GVT stall** — the engine's virtual position (GVT, the conservative
  horizon, or the sequential clock) has not advanced for a wall-clock
  and/or boundary-count deadline.
* **Livelock** — some in-flight packet's age exceeds a Faber-style
  delivery bound derived from the topology diameter
  (``livelock_factor * diameter + livelock_slack`` steps).  Packet ages
  are read from pending-event payloads (the ``inject_step`` field every
  hot-potato packet carries); models without packet payloads simply
  never trip it.
* **Rollback thrash** — the wasted-work fraction (events rolled back per
  event processed, over a boundary window — the same attribution
  ``repro.obs thrash`` reports offline) exceeds a threshold.
* **Memory growth** — live event counts (pending + processed-but-
  uncommitted) exceed a budget.

The degradation ladder (``HealthConfig.ladder``) is walked one rung per
trip, with a cooldown between rungs so each remedy gets time to work:

1. ``throttle`` — tighten the optimistic throttle (halve the optimism
   factor; repeats until the factor hits its floor).  Applies only to an
   optimistic engine running with ``adaptive=True``; other engines skip
   this rung.  Committed results are invariant to optimism, so this is
   always safe.
2. ``restore`` / ``abort`` — actions the engine cannot apply to
   itself: the watchdog raises :class:`~repro.errors.HealthIntervention`
   out of ``run()`` at the boundary and
   :func:`repro.health.run_with_recovery` acts on it (restore the last
   good snapshot with bounded retries, or abort with a forensics
   bundle).  No rung swaps the engine: a sick run is repaired on its
   own engine or stopped, never recomputed elsewhere.

Every trip is appended to ``Watchdog.events`` and — when a sink is
attached — written as a schema-additive ``health`` JSONL line, so
``repro.obs watch`` can display watchdog state live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, HealthIntervention
from repro.hotpotato.router import P_INJECT_STEP, PACKET_FIELDS

__all__ = ["HealthConfig", "HealthEvent", "Watchdog", "DEFAULT_LADDER"]

#: Default escalation order; see the module docstring.
DEFAULT_LADDER = ("throttle", "restore", "abort")

#: Actions the watchdog can apply in-run (everything else is raised as a
#: HealthIntervention for the recovery runner).
_IN_RUN_ACTIONS = frozenset({"throttle"})

_KNOWN_ACTIONS = frozenset(DEFAULT_LADDER)


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds and deadlines for the watchdog's detectors.

    The defaults are deliberately lenient: a healthy run — including the
    overhead-gate workload and the golden-seed determinism fixtures —
    must produce **zero** health events at default thresholds (a test
    pins this).  Tighten them per run when hunting a specific sickness.
    """

    #: Wall-clock seconds without virtual progress before ``gvt_stall``
    #: trips (0 disables the wall deadline).
    stall_wall_seconds: float = 30.0
    #: Boundaries without virtual progress before ``gvt_stall`` trips
    #: (0 disables the boundary deadline).
    stall_boundaries: int = 512
    #: Faber-style delivery bound: an in-flight packet older than
    #: ``livelock_factor * diameter + livelock_slack`` virtual steps
    #: trips ``livelock``.  Used only when the model's topology exposes
    #: ``diameter()`` (or ``livelock_bound`` overrides it).
    livelock_factor: float = 8.0
    livelock_slack: float = 32.0
    #: Explicit age bound in steps; overrides the diameter formula when
    #: set (also enables the detector for models without a topology).
    livelock_bound: float | None = None
    #: Scan pending events for over-age packets every N boundaries (the
    #: scan is O(live events), so it is paced; 0 disables the detector).
    livelock_check_every: int = 8
    #: Wasted-work fraction (rolled back / processed, per boundary
    #: window) above which ``rollback_thrash`` trips.
    thrash_fraction: float = 0.95
    #: Ignore windows with fewer processed events than this (small
    #: windows make the fraction meaningless).
    thrash_min_processed: int = 4096
    #: Live event budget (pending + processed-but-uncommitted) above
    #: which ``memory_growth`` trips.
    memory_budget_events: int = 2_000_000
    #: Boundaries to wait after taking an action before any detector may
    #: trip again (gives the remedy time to take effect).
    cooldown_boundaries: int = 8
    #: Throttle-rung applications before escalating (the adaptive
    #: throttle may raise the factor back between trips, so "factor at
    #: floor" alone is not a termination guarantee).
    throttle_steps: int = 4
    #: Escalation order; rungs an engine cannot apply are skipped.
    ladder: tuple[str, ...] = DEFAULT_LADDER
    #: Test/chaos hook: force a synthetic trip of detector ``forced`` at
    #: this boundary count (None = never).  Lets the chaos harness drive
    #: deterministic watchdog-triggered recoveries without manufacturing
    #: a genuinely sick run.
    trip_at_boundary: int | None = None

    def __post_init__(self) -> None:
        if self.stall_wall_seconds < 0:
            raise ConfigurationError(
                f"stall_wall_seconds must be >= 0, got {self.stall_wall_seconds}"
            )
        if not 0.0 < self.thrash_fraction <= 1.0:
            raise ConfigurationError(
                f"thrash_fraction must be in (0, 1], got {self.thrash_fraction}"
            )
        unknown = [a for a in self.ladder if a not in _KNOWN_ACTIONS]
        if unknown:
            raise ConfigurationError(
                f"unknown ladder action(s) {unknown}; choose from "
                f"{sorted(_KNOWN_ACTIONS)}"
            )


@dataclass(frozen=True)
class HealthEvent:
    """One detector trip (and the ladder action taken for it)."""

    #: Which detector fired ("gvt_stall", "livelock", "rollback_thrash",
    #: "memory_growth", or "forced" for the test hook).
    detector: str
    #: Ladder action taken ("throttle", "restore", "abort").
    action: str
    #: Engine kind at the time ("sequential"/"conservative"/"optimistic").
    engine: str
    #: Boundary count when the detector fired.
    boundary: int
    #: Virtual position (GVT / horizon / sequential clock).
    position: float
    #: Wall-clock seconds since the watchdog was attached.
    wall: float
    #: Detector-specific measurements (ages, fractions, counts ...).
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSONL payload for the ``health`` line type (schema 5)."""
        return {
            "detector": self.detector,
            "action": self.action,
            "engine": self.engine,
            "boundary": self.boundary,
            "position": self.position,
            "wall": self.wall,
            **self.detail,
        }

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return (
            f"[{self.detector}] engine={self.engine} boundary={self.boundary} "
            f"position={self.position:g} wall={self.wall:.1f}s -> {self.action}"
            + (f" ({extra})" if extra else "")
        )


class Watchdog:
    """Liveness monitor attachable to any engine (see module docstring).

    Parameters
    ----------
    config:
        Detector thresholds; ``None`` uses the lenient defaults.
    sink:
        Optional :class:`~repro.obs.recorder.JsonlSink` (or anything with
        a ``write_health(dict)`` method); every event is written through
        as a ``health`` line.
    clock:
        Wall-clock source (injectable for tests; default
        ``time.monotonic``).
    """

    def __init__(self, config: HealthConfig | None = None, *,
                 sink=None, clock=time.monotonic) -> None:
        self.cfg = config if config is not None else HealthConfig()
        self.sink = sink
        self.clock = clock
        #: Every detector trip, in order.
        self.events: list[HealthEvent] = []
        #: Boundaries observed (all engines share one counter).
        self.boundaries = 0
        #: Current ladder rung index.
        self.rung = 0
        self._engine_kind = "unattached"
        self._bound = None  # resolved livelock age bound, or None
        self._t0 = clock()
        # Progress tracking.
        self._last_position = float("-inf")
        self._progress_boundary = 0
        self._progress_wall = self._t0
        # Thrash window baselines (optimistic only).
        self._last_processed = 0
        self._last_rolled = 0
        # Cooldown bookkeeping.
        self._quiet_until = 0
        self._forced_done = False
        self._throttle_steps = 0

    # ------------------------------------------------------------------
    # Attachment.
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Called by ``attach_health``: resolve per-engine parameters.

        Re-binding (a restore attempt) resets the per-run progress
        baselines — a fresh engine starting from a snapshot must not
        inherit the sick run's position — but keeps the ladder rung and
        event log, so repeated sickness escalates instead of looping.
        """
        self._engine_kind = engine.kind
        self._t0 = self.clock()
        self._progress_wall = self._t0
        self._progress_boundary = self.boundaries
        self._last_position = float("-inf")
        self._last_processed = 0
        self._last_rolled = 0
        cfg = self.cfg
        if cfg.livelock_bound is not None:
            self._bound = cfg.livelock_bound
        else:
            topo = getattr(engine.model, "topo", None)
            diameter = getattr(topo, "diameter", None)
            if diameter is not None:
                self._bound = cfg.livelock_factor * diameter() + cfg.livelock_slack
            else:
                self._bound = None

    @property
    def livelock_bound(self) -> float | None:
        """Resolved packet-age bound in steps (None = detector off)."""
        return self._bound

    # ------------------------------------------------------------------
    # Engine boundary hooks (one per engine kind, mirroring
    # ``_sample_metrics``: cheap aggregation, no per-event work).
    # ------------------------------------------------------------------
    def boundary_optimistic(self, kernel) -> None:
        """One GVT boundary of a Time Warp kernel."""
        self.boundaries += 1
        position = kernel.gvt
        self._check_forced(position, engine=kernel)
        self._check_stall(position, engine=kernel)
        cfg = self.cfg
        processed = sum(pe.stats.processed for pe in kernel.pes)
        rolled = sum(kp.stats.events_rolled_back for kp in kernel.kps)
        d_proc = processed - self._last_processed
        d_roll = rolled - self._last_rolled
        self._last_processed, self._last_rolled = processed, rolled
        if d_proc >= cfg.thrash_min_processed and d_proc > 0:
            fraction = d_roll / d_proc
            if fraction > cfg.thrash_fraction:
                self._trip(
                    "rollback_thrash", position,
                    {"wasted_fraction": round(fraction, 4),
                     "window_processed": d_proc, "window_rolled_back": d_roll},
                    engine=kernel,
                )
        pending = sum(len(pe.pending) for pe in kernel.pes)
        depth = sum(len(kp.processed) for kp in kernel.kps)
        if pending + depth > cfg.memory_budget_events:
            self._trip(
                "memory_growth", position,
                {"pending": pending, "processed_depth": depth,
                 "budget": cfg.memory_budget_events},
                engine=kernel,
            )
        self._check_livelock(
            position, lambda: (ev for pe in kernel.pes for ev in pe.pending),
            engine=kernel,
        )

    def boundary_conservative(self, kernel) -> None:
        """One scheduler round of the conservative kernel."""
        self.boundaries += 1
        position = min(pe.next_ts() for pe in kernel.pes)
        self._check_forced(position)
        self._check_stall(position)
        pending = sum(len(pe.pending) for pe in kernel.pes)
        if pending > self.cfg.memory_budget_events:
            self._trip(
                "memory_growth", position,
                {"pending": pending, "processed_depth": 0,
                 "budget": self.cfg.memory_budget_events},
            )
        self._check_livelock(
            position, lambda: (ev for pe in kernel.pes for ev in pe.pending)
        )

    def boundary_sequential(self, engine, now: float) -> None:
        """One boundary of the sequential engine (an event interval or a
        band program's step end)."""
        self.boundaries += 1
        self._check_forced(now)
        self._check_stall(now)
        pending = len(engine.pending)
        if pending > self.cfg.memory_budget_events:
            self._trip(
                "memory_growth", now,
                {"pending": pending, "processed_depth": 0,
                 "budget": self.cfg.memory_budget_events},
            )
        self._check_livelock(now, lambda: iter(engine.pending))

    # ------------------------------------------------------------------
    # Detectors.
    # ------------------------------------------------------------------
    def _check_forced(self, position: float, *, engine=None) -> None:
        cfg = self.cfg
        if (cfg.trip_at_boundary is not None and not self._forced_done
                and self.boundaries >= cfg.trip_at_boundary):
            self._forced_done = True
            self._trip("forced", position,
                       {"trip_at_boundary": cfg.trip_at_boundary},
                       engine=engine)

    def _check_stall(self, position: float, *, engine=None) -> None:
        cfg = self.cfg
        if position > self._last_position:
            self._last_position = position
            self._progress_boundary = self.boundaries
            self._progress_wall = self.clock()
            return
        stuck_boundaries = self.boundaries - self._progress_boundary
        stuck_wall = self.clock() - self._progress_wall
        if ((cfg.stall_boundaries and stuck_boundaries >= cfg.stall_boundaries)
                or (cfg.stall_wall_seconds
                    and stuck_wall >= cfg.stall_wall_seconds)):
            # Re-arm so the next trip needs a fresh deadline's worth of
            # stagnation rather than firing every boundary.
            self._progress_boundary = self.boundaries
            self._progress_wall = self.clock()
            self._trip(
                "gvt_stall", position,
                {"stuck_boundaries": stuck_boundaries,
                 "stuck_wall": round(stuck_wall, 3)},
                engine=engine,
            )

    def _check_livelock(self, position: float, events, *, engine=None) -> None:
        cfg = self.cfg
        bound = self._bound
        if (bound is None or not cfg.livelock_check_every
                or self.boundaries % cfg.livelock_check_every):
            return
        worst = -1.0
        for ev in events():
            data = ev.data
            if type(data) is tuple and len(data) == len(PACKET_FIELDS):
                inject = data[P_INJECT_STEP]  # a hot-potato packet
            elif type(data) is dict:
                inject = data.get("inject_step")  # e.g. the buffered baseline
            else:
                continue
            if inject is None:
                continue
            age = position - inject
            if age > worst:
                worst = age
        if worst > bound:
            self._trip(
                "livelock", position,
                {"oldest_packet_age": worst, "bound": bound},
                engine=engine,
            )

    # ------------------------------------------------------------------
    # The degradation ladder.
    # ------------------------------------------------------------------
    def _trip(self, detector: str, position: float, detail: dict,
              *, engine=None) -> None:
        if self.boundaries < self._quiet_until:
            return
        action = self._next_action(engine)
        event = HealthEvent(
            detector=detector,
            action=action,
            engine=self._engine_kind,
            boundary=self.boundaries,
            position=position,
            wall=self.clock() - self._t0,
            detail=detail,
        )
        self.events.append(event)
        if self.sink is not None:
            self.sink.write_health(event.to_dict())
        self._quiet_until = self.boundaries + self.cfg.cooldown_boundaries
        if action == "throttle":
            self._tighten_throttle(engine)
            return
        raise HealthIntervention(action, event)

    def _next_action(self, engine) -> str:
        """Current ladder rung, skipping rungs this engine cannot apply."""
        ladder = self.cfg.ladder
        while self.rung < len(ladder) - 1:
            action = ladder[self.rung]
            if action == "throttle":
                throttle = getattr(engine, "throttle", None)
                if (throttle is None
                        or throttle.factor <= throttle.cfg.floor
                        or self._throttle_steps >= self.cfg.throttle_steps):
                    self.rung += 1
                    continue
            return action
        return ladder[-1] if ladder else "abort"

    def _tighten_throttle(self, kernel) -> None:
        """Rung 1: halve the optimism factor (respecting its floor)."""
        throttle = kernel.throttle
        new = max(throttle.cfg.floor, throttle.factor / 2.0)
        if new != throttle.factor:
            throttle.factor = new
            throttle.adjustments += 1
        self._throttle_steps += 1
        if new <= throttle.cfg.floor or self._throttle_steps >= self.cfg.throttle_steps:
            # Throttle exhausted; next trip escalates.
            self.rung += 1
