"""The liveness watchdog: boundary-rate detectors over a running engine.

The paper's central claim is that hot-potato routing stays live without
flow control; Faber's livelock-free schemes give the correctness foil —
an *absolute upper bound* on packet delivery time that a healthy run
must respect.  This module is the runtime half of that argument: a
:class:`Watchdog` attached through the Executor ABI
(``engine.attach_health(wd)``) watches a run for the four ways a
simulation goes sick and throttles or stops it when one trips.

Detectors (all evaluated at GVT-round / step-end / event-interval
*boundaries*, never on the per-event path — a detached watchdog costs
nothing and an attached one keeps the fused fast paths installed):

* **GVT stall** — the engine's virtual position (GVT, the conservative
  kernel's included, or the sequential clock) has not advanced for a
  wall-clock and/or boundary-count deadline.
* **Livelock** — some in-flight packet's age exceeds a Faber-style
  delivery bound derived from the topology diameter
  (``LIVELOCK_FACTOR * diameter + LIVELOCK_SLACK`` steps).  Packet ages
  are read from the ``inject_step`` field every hot-potato packet
  carries: in pending-event payloads, or in the band program's
  step-end tuples; models without packet payloads simply never trip it.
* **Rollback thrash** — the wasted-work fraction (events rolled back per
  event processed, over a boundary window of at least
  ``THRASH_MIN_PROCESSED`` events — the same attribution ``repro.obs
  thrash`` reports offline) exceeds ``THRASH_FRACTION``.
* **Memory growth** — live event counts (pending + processed-but-
  uncommitted) exceed ``MEMORY_BUDGET_EVENTS``.

A trip has one of two outcomes, with a cooldown after each so a
remedy gets time to work:

* ``throttle`` — tighten the optimistic throttle (halve the optimism
  factor), at most ``throttle_steps`` times and never below its floor.
  Applies only to an optimistic engine running with ``adaptive=True``.
  Committed results are invariant to optimism, so this is always safe.
* ``abort`` — everything else: the watchdog raises
  :class:`~repro.errors.HealthIntervention` out of ``run()`` at the
  boundary.  No trip swaps the engine or restores a snapshot in-run: a
  sick run is throttled on its own engine or stopped.

Every trip is appended to ``Watchdog.events`` and — when a sink is
attached — written as a schema-additive ``health`` JSONL line, so
``repro.obs watch`` can display watchdog state live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, HealthIntervention
from repro.hotpotato.router import P_INJECT_STEP, PACKET_FIELDS

__all__ = ["HealthConfig", "HealthEvent", "Watchdog"]

#: Faber-style delivery bound: an in-flight packet older than
#: ``LIVELOCK_FACTOR * diameter + LIVELOCK_SLACK`` virtual steps trips
#: ``livelock`` (``HealthConfig.livelock_bound`` overrides it).
LIVELOCK_FACTOR = 8.0
LIVELOCK_SLACK = 32.0
#: Wasted-work fraction (rolled back / processed, per boundary window)
#: above which ``rollback_thrash`` trips.
THRASH_FRACTION = 0.95
#: Boundary windows with fewer processed events than this are not judged
#: for thrash (a small window makes the fraction meaningless).
THRASH_MIN_PROCESSED = 4096
#: Live event budget (pending + processed-but-uncommitted) above which
#: ``memory_growth`` trips.
MEMORY_BUDGET_EVENTS = 2_000_000


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
    #: Explicit packet-age bound in steps; overrides the diameter
    #: formula (``LIVELOCK_FACTOR * diameter + LIVELOCK_SLACK``, used
    #: when the model's topology exposes ``diameter()``) and enables the
    #: detector for models without a topology.
    livelock_bound: float | None = None
    #: Scan pending events for over-age packets every N boundaries (the
    #: scan is O(live events), so it is paced; 0 disables the detector).
    livelock_check_every: int = 8
    #: Boundaries to wait after taking an action before any detector may
    #: trip again (gives the remedy time to take effect).
    cooldown_boundaries: int = 8
    #: Throttle applications before a trip aborts (the adaptive
    #: throttle may raise the factor back between trips, so "factor at
    #: floor" alone is not a termination guarantee).
    throttle_steps: int = 4

    def __post_init__(self) -> None:
        if self.stall_wall_seconds < 0:
            raise ConfigurationError(
                f"stall_wall_seconds must be >= 0, got {self.stall_wall_seconds}"
            )


@dataclass(frozen=True)
class HealthEvent:
    """One detector trip (and the action taken for it)."""

    #: Which detector fired ("gvt_stall", "livelock", "rollback_thrash"
    #: or "memory_growth").
    detector: str
    #: Action taken ("throttle" or "abort").
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
        self._throttle_steps = 0
        #: Set once the throttle is spent (steps used up or factor at its
        #: floor); every later trip aborts.
        self._throttle_spent = False

    # ------------------------------------------------------------------
    # Attachment.
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Called by ``attach_health``: resolve per-engine parameters and
        start the progress baselines."""
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
                self._bound = LIVELOCK_FACTOR * diameter() + LIVELOCK_SLACK
            else:
                self._bound = None

    @property
    def livelock_bound(self) -> float | None:
        """Resolved packet-age bound in steps (None = detector off)."""
        return self._bound

    # ------------------------------------------------------------------
    # Engine boundary hooks (one per run loop — Time Warp's serves the
    # conservative kernel too — mirroring ``_sample_metrics``: cheap
    # aggregation, no per-event work).
    # ------------------------------------------------------------------
    def boundary_optimistic(self, kernel) -> None:
        """One GVT boundary of a Time Warp kernel (a conservative kernel's
        window: its GVT is the YAWNS horizon's floor)."""
        self.boundaries += 1
        position = kernel.gvt
        self._check_stall(position, engine=kernel)
        processed = sum(pe.stats.processed for pe in kernel.pes)
        rolled = sum(kp.stats.events_rolled_back for kp in kernel.kps)
        d_proc = processed - self._last_processed
        d_roll = rolled - self._last_rolled
        self._last_processed, self._last_rolled = processed, rolled
        if d_proc >= THRASH_MIN_PROCESSED:
            fraction = d_roll / d_proc
            if fraction > THRASH_FRACTION:
                self._trip(
                    "rollback_thrash", position,
                    {"wasted_fraction": round(fraction, 4),
                     "window_processed": d_proc, "window_rolled_back": d_roll},
                    engine=kernel,
                )
        pending = sum(len(pe.pending) for pe in kernel.pes)
        depth = sum(len(kp.processed) for kp in kernel.kps)
        if pending + depth > MEMORY_BUDGET_EVENTS:
            self._trip(
                "memory_growth", position,
                {"pending": pending, "processed_depth": depth,
                 "budget": MEMORY_BUDGET_EVENTS},
                engine=kernel,
            )
        self._check_livelock(
            position,
            lambda: _inject_steps(ev for pe in kernel.pes for ev in pe.pending),
            engine=kernel,
        )

    def boundary_sequential(self, engine, now: float, cut=None) -> None:
        """One boundary of the sequential engine: an event interval of
        its per-event loop, read from ``engine.pending``, or a band
        program's step end, read in place from its ``cut`` (the in-flight
        count and each packet's inject step; nothing is built)."""
        self.boundaries += 1
        self._check_stall(now)
        pending = len(engine.pending) if cut is None else cut.in_flight
        if pending > MEMORY_BUDGET_EVENTS:
            self._trip(
                "memory_growth", now,
                {"pending": pending, "processed_depth": 0,
                 "budget": MEMORY_BUDGET_EVENTS},
            )
        self._check_livelock(now, lambda: (
            _inject_steps(engine.pending) if cut is None
            else (inject for _, _, inject in cut.packets())
        ))

    # ------------------------------------------------------------------
    # Detectors.
    # ------------------------------------------------------------------
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

    def _check_livelock(self, position: float, inject_steps, *,
                        engine=None) -> None:
        """``inject_steps()`` yields the inject step of each packet in
        flight (called only on the boundaries that scan)."""
        cfg = self.cfg
        bound = self._bound
        if (bound is None or not cfg.livelock_check_every
                or self.boundaries % cfg.livelock_check_every):
            return
        worst = -1.0
        for inject in inject_steps():
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
    # The two outcomes.
    # ------------------------------------------------------------------
    def _trip(self, detector: str, position: float, detail: dict,
              *, engine=None) -> None:
        if self.boundaries < self._quiet_until:
            return
        action = self._action(engine)
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
        if action == "abort":
            raise HealthIntervention(action, event)
        self._tighten_throttle(engine)

    def _action(self, engine) -> str:
        """``throttle`` while an adaptive kernel's throttle has room,
        else ``abort``."""
        throttle = getattr(engine, "throttle", None)
        if (throttle is None or self._throttle_spent
                or throttle.factor <= throttle.cfg.floor
                or self._throttle_steps >= self.cfg.throttle_steps):
            return "abort"
        return "throttle"

    def _tighten_throttle(self, kernel) -> None:
        """Halve the optimism factor (respecting its floor)."""
        throttle = kernel.throttle
        new = max(throttle.cfg.floor, throttle.factor / 2.0)
        if new != throttle.factor:
            throttle.factor = new
            throttle.adjustments += 1
        self._throttle_steps += 1
        if new <= throttle.cfg.floor or self._throttle_steps >= self.cfg.throttle_steps:
            self._throttle_spent = True


def _inject_steps(events):
    """The inject step of each packet among ``events``: a hot-potato
    packet tuple's field, or a dict payload's ``inject_step`` (e.g. the
    buffered baseline); events of any other payload carry no packet."""
    for ev in events:
        data = ev.data
        if type(data) is tuple and len(data) == len(PACKET_FIELDS):
            yield data[P_INJECT_STEP]
        elif type(data) is dict and data.get("inject_step") is not None:
            yield data["inject_step"]
