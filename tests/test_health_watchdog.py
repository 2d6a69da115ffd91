"""Liveness watchdog: detectors trip on sick populations, never on
healthy ones, and an attached watchdog does not perturb the science.

The contract (docs/HEALTH.md): synthetic stalled-GVT and livelocked
packet populations must trip their detectors within the configured
deadline; a healthy golden-seed run must produce **zero** health events
at the default thresholds; and attaching the watchdog must leave the
committed sequence bit-identical.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
from repro.core.trace import Tracer
from repro.errors import ConfigurationError, HealthIntervention
from repro.health import DEFAULT_LADDER, HealthConfig, HealthEvent, Watchdog
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
            ConservativeConfig(
                end_time=DURATION, n_pes=2, seed=SEED,
                lookahead=model.lookahead,
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
    assert wd.rung == 0


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
    cfg = wd.cfg
    want = cfg.livelock_factor * engine.model.topo.diameter() + cfg.livelock_slack
    assert wd.livelock_bound == want


# ----------------------------------------------------------------------
# Synthetic sick populations.
# ----------------------------------------------------------------------
def test_stall_trips_within_boundary_deadline():
    """A non-advancing position trips gvt_stall at exactly the deadline."""
    wd = Watchdog(
        HealthConfig(stall_boundaries=16, stall_wall_seconds=0.0,
                     ladder=("abort",)),
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
        HealthConfig(stall_wall_seconds=5.0, stall_boundaries=0,
                     ladder=("abort",)),
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
        HealthConfig(stall_boundaries=8, stall_wall_seconds=0.0,
                     ladder=("abort",)),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    for step in range(64):  # always advancing: never trips
        wd.boundary_sequential(engine, float(step))
    assert wd.events == []


def test_livelock_trips_on_overage_packet_population():
    """A pending packet older than the bound trips within one scan."""
    wd = Watchdog(
        HealthConfig(livelock_bound=10.0, livelock_check_every=1,
                     ladder=("abort",)),
    )
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
    wd = Watchdog(
        HealthConfig(livelock_bound=10.0, livelock_check_every=8,
                     ladder=("abort",)),
    )
    engine = _FakeEngine(pending=[_FakeEvent({"inject_step": 0})])
    wd.bind(engine)
    for _ in range(7):  # boundaries 1..7: no scan yet
        wd.boundary_sequential(engine, 100.0)
    assert wd.events == []
    with pytest.raises(HealthIntervention):
        wd.boundary_sequential(engine, 100.0)  # boundary 8: scan fires


def test_livelock_ignores_models_without_packet_payloads():
    wd = Watchdog(
        HealthConfig(livelock_bound=1.0, livelock_check_every=1,
                     ladder=("abort",)),
    )
    engine = _FakeEngine(pending=[_FakeEvent(None), _FakeEvent((1, 2))])
    wd.bind(engine)
    wd.boundary_sequential(engine, 1000.0)
    assert wd.events == []


def test_cooldown_suppresses_repeat_trips():
    wd = Watchdog(
        HealthConfig(stall_boundaries=4, stall_wall_seconds=0.0,
                     cooldown_boundaries=32,
                     ladder=("throttle", "abort")),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    # No throttle on a sequential engine: the rung is skipped, but the
    # cooldown still applies after the first (abort-rung) trip attempt.
    with pytest.raises(HealthIntervention):
        for _ in range(64):
            wd.boundary_sequential(engine, 0.0)
    trips = len(wd.events)
    assert trips == 1  # cooldown swallowed the repeats


def test_throttle_rung_skipped_without_a_throttle():
    """Engines without an (adaptive) throttle escalate straight past it."""
    wd = Watchdog(
        HealthConfig(trip_at_boundary=1, ladder=("throttle", "abort")),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 0.0)
    assert exc_info.value.action == "abort"


def test_forced_trip_fires_once_at_requested_boundary():
    wd = Watchdog(HealthConfig(trip_at_boundary=3, ladder=("abort",)))
    engine = _FakeEngine()
    wd.bind(engine)
    wd.boundary_sequential(engine, 1.0)
    wd.boundary_sequential(engine, 2.0)
    with pytest.raises(HealthIntervention) as exc_info:
        wd.boundary_sequential(engine, 3.0)
    assert exc_info.value.event.detector == "forced"
    assert wd.boundaries == 3


def _adaptive_opt() -> TimeWarpKernel:
    return TimeWarpKernel(
        _model(),
        EngineConfig(end_time=DURATION, n_pes=2, n_kps=8, batch_size=16,
                     seed=SEED, adaptive=True),
    )


def test_throttle_action_tightens_optimistic_throttle_in_run():
    """A throttle-rung trip halves the optimism factor mid-run and the
    committed sequence still matches the unwatched baseline.  (Only an
    ``adaptive=True`` kernel has a throttle; others skip the rung.)"""
    baseline = Tracer()
    _adaptive_opt().attach_tracer(baseline).run()

    wd = Watchdog(
        HealthConfig(trip_at_boundary=2, ladder=("throttle", "abort")),
    )
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
# Rebinding semantics (restore attempts).
# ----------------------------------------------------------------------
def test_rebind_resets_progress_but_keeps_rung_and_events():
    wd = Watchdog(
        HealthConfig(stall_boundaries=4, stall_wall_seconds=0.0,
                     cooldown_boundaries=0, ladder=("restore", "abort")),
        clock=_FakeClock(),
    )
    engine = _FakeEngine()
    wd.bind(engine)
    wd.boundary_sequential(engine, 100.0)
    with pytest.raises(HealthIntervention) as exc_info:
        for _ in range(8):
            wd.boundary_sequential(engine, 100.0)
    assert exc_info.value.action == "restore"
    wd.rung += 1  # what run_with_recovery does when restore is impossible
    events_before = len(wd.events)

    # A fresh engine restarts from position 0: rebinding must not read
    # that as "no progress" against the sick run's position 100.
    engine2 = _FakeEngine()
    wd.bind(engine2)
    wd.boundary_sequential(engine2, 0.0)
    assert len(wd.events) == events_before
    assert wd.rung == 1  # escalation state survives the rebind


# ----------------------------------------------------------------------
# Config and event plumbing.
# ----------------------------------------------------------------------
def test_default_ladder_order():
    assert DEFAULT_LADDER == ("throttle", "restore", "abort")
    assert HealthConfig().ladder == DEFAULT_LADDER


@pytest.mark.parametrize("action", ["fallback", "bogus"])
def test_unknown_ladder_action_refused_by_name(action):
    """The engine fallback left the ladder: naming it is refused up
    front, like any other unknown action, and the message names it."""
    ladder = ("fallback", "abort") if action == "fallback" else (action,)
    with pytest.raises(ConfigurationError, match=repr(action)):
        HealthConfig(ladder=ladder)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"stall_wall_seconds": -1.0},
        {"thrash_fraction": 0.0},
        {"thrash_fraction": 1.5},
        {"ladder": ("throttle", "explode")},
    ],
)
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
    capture = RunCapture(health_out=out, meta={"engine": "opt"})
    wd = Watchdog(
        HealthConfig(trip_at_boundary=2, ladder=("throttle", "abort")),
        sink=capture.health_sink,
    )
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
