"""Liveness watchdog: detectors trip on sick populations, never on
healthy ones, and an attached watchdog does not perturb the science.

The contract (docs/HEALTH.md): synthetic stalled-GVT and livelocked
packet populations must trip their detectors within the configured
deadline; a healthy golden-seed run must produce **zero** health events
at the default thresholds; and attaching the watchdog must leave the
committed sequence bit-identical.
"""

from types import SimpleNamespace

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
from repro.core.trace import Tracer
from repro.errors import ConfigurationError, HealthIntervention
from repro.health import HealthConfig, HealthEvent, Watchdog
from repro.health import watchdog
from repro.health.watchdog import LIVELOCK_FACTOR, LIVELOCK_SLACK
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

N = 4
DURATION = 12.0
SEED = 7


def _model() -> HotPotatoModel:
    return HotPotatoModel(
        HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)
    )


def _engine(kind: str):
    if kind == "seq":
        return SequentialEngine(_model(), DURATION, seed=SEED)
    if kind == "cons":
        model = _model()
        return ConservativeKernel(
            model,
            EngineConfig(
                end_time=DURATION, n_pes=2, seed=SEED,
            ),
        )
    return TimeWarpKernel(
        _model(),
        EngineConfig(end_time=DURATION, n_pes=2, n_kps=8, batch_size=16,
                     seed=SEED),
    )


class _FakeEvent:
    def __init__(self, data):
        self.data = data


class _FakeEngine:
    """Just enough surface for bind() + boundary_sequential()."""

    kind = "sequential"

    def __init__(self, pending=()):
        self.model = object()
        self.pending = list(pending)


class _ForcedTrip(Watchdog):
    """A watchdog that forces one synthetic ``forced`` trip once
    ``trip_at_boundary`` boundaries have passed, checked where every
    boundary hook checks for a stall: it drives exactly one watchdog
    action without manufacturing a genuinely sick run."""

    def __init__(self, trip_at_boundary: int, config=None, **kwargs):
        super().__init__(config, **kwargs)
        self.trip_at_boundary = trip_at_boundary
        self._forced_done = False

    def _check_stall(self, position, *, engine=None):
        if not self._forced_done and self.boundaries >= self.trip_at_boundary:
            self._forced_done = True
            self._trip("forced", position,
                       {"trip_at_boundary": self.trip_at_boundary},
                       engine=engine)
        super()._check_stall(position, engine=engine)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Healthy runs: zero events, identical science.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["seq", "cons", "opt"])
def test_healthy_run_zero_events_at_defaults(kind):
    wd = Watchdog()
    engine = _engine(kind).attach_health(wd)
    engine.run()
    assert wd.boundaries > 0, "watchdog was never consulted"
    assert wd.events == []


@pytest.mark.parametrize("kind", ["seq", "cons", "opt"])
def test_attached_watchdog_does_not_change_committed_sequence(kind):
    plain_tracer = Tracer()
    _engine(kind).attach_tracer(plain_tracer).run()
    watched_tracer = Tracer()
    _engine(kind).attach_tracer(watched_tracer).attach_health(
        Watchdog()
    ).run()
    assert (
        watched_tracer.committed_sequence()
        == plain_tracer.committed_sequence()
    )


def test_livelock_bound_resolves_from_topology_diameter():
    wd = Watchdog()
    engine = _engine("seq").attach_health(wd)
    want = LIVELOCK_FACTOR * engine.model.topo.diameter() + LIVELOCK_SLACK
    assert wd.livelock_bound == want


# ----------------------------------------------------------------------
# Synthetic sick populations.
# ----------------------------------------------------------------------
def test_stall_trips_within_boundary_deadline():
    """A non-advancing position trips gvt_stall at exactly the deadline."""
    wd = Watchdog(
        HealthConfig(stall_boundaries=16, stall_wall_seconds=0.0),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    wd.boundary_sequential(engine, 1.0)  # progress
    with pytest.raises(HealthIntervention) as exc_info:
        for _ in range(16):
            wd.boundary_sequential(engine, 1.0)  # stuck
    event = exc_info.value.event
    assert exc_info.value.action == "abort"
    assert event.detector == "gvt_stall"
    assert event.detail["stuck_boundaries"] == 16
    # Tripped at the deadline, not later.
    assert wd.boundaries == 17


def test_stall_trips_on_wall_deadline():
    clock = _FakeClock()
    wd = Watchdog(
        HealthConfig(stall_wall_seconds=5.0, stall_boundaries=0),
        clock=clock,
    )
    engine = _FakeEngine()
    wd.bind(engine)
    wd.boundary_sequential(engine, 1.0)
    clock.now = 4.9
    wd.boundary_sequential(engine, 1.0)  # under the deadline: no trip
    assert wd.events == []
    clock.now = 5.1
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 1.0)
    assert exc_info.value.event.detector == "gvt_stall"


def test_progress_rearms_the_stall_deadline():
    wd = Watchdog(
        HealthConfig(stall_boundaries=8, stall_wall_seconds=0.0),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    for step in range(64):  # always advancing: never trips
        wd.boundary_sequential(engine, float(step))
    assert wd.events == []


def test_livelock_trips_on_overage_packet_population():
    """A pending packet older than the bound trips within one scan."""
    wd = Watchdog(HealthConfig(livelock_bound=10.0, livelock_check_every=1))
    old = _FakeEvent({"inject_step": 0})
    fresh = _FakeEvent({"inject_step": 19})
    engine = _FakeEngine(pending=[fresh, old])
    wd.bind(engine)
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 20.0)  # old packet age = 20 > 10
    event = exc_info.value.event
    assert event.detector == "livelock"
    assert event.detail["oldest_packet_age"] == 20.0
    assert event.detail["bound"] == 10.0


def test_livelock_scan_is_paced():
    wd = Watchdog(HealthConfig(livelock_bound=10.0, livelock_check_every=8))
    engine = _FakeEngine(pending=[_FakeEvent({"inject_step": 0})])
    wd.bind(engine)
    for _ in range(7):  # boundaries 1..7: no scan yet
        wd.boundary_sequential(engine, 100.0)
    assert wd.events == []
    with pytest.raises(HealthIntervention):
        wd.boundary_sequential(engine, 100.0)  # boundary 8: scan fires


def test_livelock_ignores_models_without_packet_payloads():
    wd = Watchdog(HealthConfig(livelock_bound=1.0, livelock_check_every=1))
    engine = _FakeEngine(pending=[_FakeEvent(None), _FakeEvent((1, 2))])
    wd.bind(engine)
    wd.boundary_sequential(engine, 1000.0)
    assert wd.events == []


def test_cooldown_suppresses_repeat_trips():
    wd = Watchdog(
        HealthConfig(stall_boundaries=4, stall_wall_seconds=0.0,
                     cooldown_boundaries=32),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    # No throttle on a sequential engine, so the first trip aborts; the
    # cooldown swallows the stall detector's re-arms after it.
    with pytest.raises(HealthIntervention):
        for _ in range(64):
            wd.boundary_sequential(engine, 0.0)
    trips = len(wd.events)
    assert trips == 1  # cooldown swallowed the repeats


def test_throttle_rung_skipped_without_a_throttle():
    """Engines without an (adaptive) throttle abort on the first trip."""
    wd = _ForcedTrip(1)
    engine = _FakeEngine()
    wd.bind(engine)
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 0.0)
    assert exc_info.value.action == "abort"


def test_forced_trip_fires_once_at_requested_boundary():
    wd = _ForcedTrip(3)
    engine = _FakeEngine()
    wd.bind(engine)
    wd.boundary_sequential(engine, 1.0)
    wd.boundary_sequential(engine, 2.0)
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 3.0)
    assert exc_info.value.event.detector == "forced"
    assert wd.boundaries == 3


@pytest.mark.parametrize("kind", ["seq", "cons", "opt"])
def test_bare_run_trip_raises_abort(kind):
    """On a bare ``run()`` with no throttle to tighten, a real detector
    trip stops the run: the intervention and the logged event both say
    ``abort`` (there is no in-run restore to ask for)."""
    wd = Watchdog(HealthConfig(livelock_bound=0.5, livelock_check_every=1))
    engine = _engine(kind).attach_health(wd)
    with pytest.raises(HealthIntervention) as exc_info:
        engine.run()
    assert exc_info.value.action == "abort"
    assert exc_info.value.event.detector == "livelock"
    assert wd.events[-1].action == "abort"


@pytest.mark.parametrize("floor", [0.1, 0.5], ids=["steps", "floor"])
def test_spent_throttle_aborts_the_next_trip(floor):
    """Trips throttle an adaptive kernel until ``throttle_steps`` are used
    or the factor reaches its floor; the next trip aborts, even after the
    adaptive throttle has raised the factor again."""
    wd = Watchdog(HealthConfig(cooldown_boundaries=0, throttle_steps=2))
    kernel = _FakeEngine()
    kernel.throttle = SimpleNamespace(
        factor=1.0, adjustments=0, cfg=SimpleNamespace(floor=floor)
    )
    wd.bind(kernel)
    with pytest.raises(HealthIntervention):
        for _ in range(3):
            wd._trip("forced", 0.0, {}, engine=kernel)
            kernel.throttle.factor = 1.0  # the adaptive throttle recovers
    throttles = 2 if floor < 0.5 else 1
    assert [e.action for e in wd.events] == ["throttle"] * throttles + ["abort"]


def test_rollback_thrash_trips_on_a_rollback_heavy_run(monkeypatch):
    """``--batch 2048`` at N = 16 on 4 PEs rolls back about half of what
    it processes (the ``opt-rollback-n16`` workload): past a lowered
    ``THRASH_FRACTION`` the detector trips, on a window whose wasted
    fraction is over the threshold."""
    monkeypatch.setattr(watchdog, "THRASH_FRACTION", 0.5)
    monkeypatch.setattr(watchdog, "THRASH_MIN_PROCESSED", 1024)
    duration = 10.0
    kernel = TimeWarpKernel(
        HotPotatoModel(HotPotatoConfig(n=16, duration=duration,
                                       injector_fraction=1.0)),
        EngineConfig(end_time=duration, n_pes=4, n_kps=16, batch_size=2048,
                     seed=SEED),
    )
    wd = Watchdog()
    with pytest.raises(HealthIntervention) as exc_info:
        kernel.attach_health(wd).run()
    event = exc_info.value.event
    assert event.detector == "rollback_thrash"
    assert event.detail["window_processed"] >= 1024
    assert event.detail["wasted_fraction"] > 0.5
    assert event.detail["window_rolled_back"] > event.detail["window_processed"] / 2


@pytest.mark.parametrize("kind", ["seq", "opt"])
def test_memory_growth_trips_over_a_lowered_budget(kind, monkeypatch):
    """Past ``MEMORY_BUDGET_EVENTS`` live events the detector trips at the
    sequential boundary and at the Time Warp one, and reports counts over
    the budget."""
    monkeypatch.setattr(watchdog, "MEMORY_BUDGET_EVENTS", 8)
    wd = Watchdog()
    with pytest.raises(HealthIntervention) as exc_info:
        _engine(kind).attach_health(wd).run()
    event = exc_info.value.event
    assert event.detector == "memory_growth"
    assert event.detail["budget"] == 8
    assert event.detail["pending"] + event.detail["processed_depth"] > 8


def _adaptive_opt() -> TimeWarpKernel:
    return TimeWarpKernel(
        _model(),
        EngineConfig(end_time=DURATION, n_pes=2, n_kps=8, batch_size=16,
                     seed=SEED, adaptive=True),
    )


def test_throttle_action_tightens_optimistic_throttle_in_run():
    """A throttle trip halves the optimism factor mid-run and the
    committed sequence still matches the unwatched baseline.  (Only an
    ``adaptive=True`` kernel has a throttle; on others a trip aborts.)"""
    baseline = Tracer()
    _adaptive_opt().attach_tracer(baseline).run()

    wd = _ForcedTrip(2)
    tracer = Tracer()
    engine = _adaptive_opt().attach_tracer(tracer).attach_health(wd)
    engine.run()
    assert len(wd.events) == 1
    assert wd.events[0].action == "throttle"
    # The watchdog applied its tightening step; the adaptive throttle is
    # free to raise the factor back afterwards, so assert the step
    # counter rather than the final factor.
    assert wd._throttle_steps == 1
    assert tracer.committed_sequence() == baseline.committed_sequence()


# ----------------------------------------------------------------------
# Config and event plumbing.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [{"stall_wall_seconds": -1.0}])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        HealthConfig(**kwargs)


def test_health_event_to_dict_flattens_detail():
    event = HealthEvent(
        detector="gvt_stall", action="abort", engine="optimistic",
        boundary=12, position=3.5, wall=1.25,
        detail={"stuck_boundaries": 12},
    )
    doc = event.to_dict()
    assert doc["detector"] == "gvt_stall"
    assert doc["stuck_boundaries"] == 12
    assert "detail" not in doc
    assert "gvt_stall" in str(event)


def test_events_flow_through_health_sink_and_recording(tmp_path):
    """health lines round-trip: sink -> JSONL (schema 5) -> loader -> watch."""
    from repro.obs.capture import RunCapture
    from repro.obs.recorder import SCHEMA_VERSION, load_recording
    from repro.obs.watch import WatchState

    out = tmp_path / "run.jsonl"
    capture = RunCapture(metrics_out=out, meta={"engine": "opt"})
    wd = _ForcedTrip(2, sink=capture.health_sink)
    engine = _adaptive_opt().attach_health(wd)
    capture.attach(engine)
    result = engine.run()
    capture.finalize(result)

    rec = load_recording(out)
    assert rec.header["schema"] == SCHEMA_VERSION
    assert len(rec.health) == 1
    assert rec.health[0]["detector"] == "forced"
    assert rec.health[0]["action"] == "throttle"

    state = WatchState()
    for line in out.read_text().splitlines():
        state.feed_line(line)
    assert state.health_counts == {"forced": 1}
