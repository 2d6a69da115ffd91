"""The sequential band program equals the per-event loop it replaces.

``SequentialEngine.run`` hands a hot-potato run on the Busch torus to
:func:`repro.hotpotato.band.run_bands`, whatever is attached; the same
model with its band program withheld (``per_event_reference``) runs every
event through the handler table instead.  The two must agree on
everything the per-event loop leaves behind: statistics, counters, the
delivery log in order, every router's state and RNG, the events still
pending at the barrier — wherever in a band the barrier falls — and,
traced, every EXEC / COMMIT record in order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.policies import GreedyPolicy
from repro.ckpt import Checkpointer, list_snapshots, read_snapshot
from repro.core.config import EngineConfig
from repro.core.engine import SequentialEngine
from repro.core.optimistic import run_optimistic
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.health import HealthConfig, Watchdog
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.net import TorusTopology
from repro.scenarios.adversary import InjectionEvent, InjectionPlan
from tests.kernel_models import band_spy, per_event_reference


def _observe(
    cfg: HotPotatoConfig, seed: int, *, reference: bool = False,
    traced: bool = False, **model_kw,
):
    """Run ``cfg`` sequentially; everything the run leaves behind."""
    model = HotPotatoModel(cfg, **model_kw)
    if reference:
        per_event_reference(model)
    entries = band_spy(model)
    engine = SequentialEngine(model, cfg.duration, seed=seed)
    tracer = Tracer()
    if traced:
        engine.attach_tracer(tracer)
    result = engine.run()
    run = result.run
    return {
        "decline": run.band_decline_reason,
        "entries": entries,
        "records": tracer.records,
        "model_stats": result.model_stats,
        "counters": (run.processed, run.committed, run.local_sends),
        "makespan": run.makespan_seconds,
        "delivery_log": list(model.delivery_log),
        "lps": [
            (lp.snapshot_state()[:2], lp.send_seq, lp.rng.count,
             lp.rng.checkpoint())
            for lp in engine.lps
        ],
        "pending": sorted(
            (tuple(ev.key), ev.dst, ev.kind, ev.data) for ev in engine.pending
        ),
    }


def _assert_band_equals_per_event(cfg: HotPotatoConfig, seed: int) -> None:
    """Untraced band program against the traced reference, field by
    field; then the traced band program's records against the
    reference's, record for record."""
    band = _observe(cfg, seed)
    per_event = _observe(cfg, seed, reference=True, traced=True)
    assert band.pop("decline") == per_event.pop("decline") == ""
    assert band.pop("entries") == ([1] if cfg.duration > 1.0 else [])
    assert per_event.pop("entries") == []
    records = per_event.pop("records")
    assert band.pop("records") == []
    for what in band:
        assert band[what] == per_event[what], what
    traced = _observe(cfg, seed, traced=True)
    assert traced["entries"] == ([1] if cfg.duration > 1.0 else [])
    assert traced["records"] == records
    assert len(records) == 2 * per_event["counters"][0]


@st.composite
def cases(draw):
    step = draw(st.integers(min_value=1, max_value=9))
    end = draw(st.sampled_from(
        [float(step), step + 0.3, step + 0.7, step + 0.92, 0.5]
    ))
    cfg = HotPotatoConfig(
        n=draw(st.sampled_from([2, 3, 4, 6, 8])),
        duration=end,
        injector_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        initial_fill=draw(st.sampled_from([0.0, 0.5, 1.0])),
        heartbeat=draw(st.booleans()),
        delivery_log=draw(st.booleans()),
        arrival_jitter=draw(st.booleans()),
        absorb_sleeping=draw(st.booleans()),
    )
    return cfg, draw(st.integers(min_value=0, max_value=2**32))


@given(case=cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_band_equals_per_event(case):
    _assert_band_equals_per_event(*case)


#: The barrier inside each band and between each two, the degenerate
#: populations, and the upgrade chances raised until every priority and
#: every Busch rule fires within a few steps.
PINNED = {
    "before-the-program-starts": dict(n=4, duration=0.5),
    "hand-over-only": dict(n=4, duration=1.0),
    "inside-arrive-band": dict(n=4, duration=3.3, heartbeat=True),
    "between-arrive-and-route": dict(n=4, duration=3.6),
    "inside-route-band": dict(n=4, duration=3.7, delivery_log=True),
    "at-the-inject-stamp": dict(n=4, duration=3.9),
    "between-inject-and-heartbeat": dict(n=4, duration=3.92, heartbeat=True),
    "after-heartbeat": dict(n=4, duration=3.97, heartbeat=True),
    "two-by-two": dict(n=2, duration=8.0, heartbeat=True, delivery_log=True),
    "odd-torus": dict(n=3, duration=8.3),
    "no-injectors-half-fill": dict(
        n=6, duration=9.0, injector_fraction=0.0, initial_fill=0.5
    ),
    "empty-start": dict(n=4, duration=9.0, initial_fill=0.0),
    "fixed-jitter": dict(n=4, duration=8.0, arrival_jitter=False),
    "proof-mode": dict(n=4, duration=12.0, absorb_sleeping=False),
    "every-priority": dict(
        n=6, duration=25.0, sleeping_upgrade_scale=0.5,
        active_upgrade_scale=0.2, delivery_log=True,
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_band_equals_per_event_pinned(name):
    cfg = HotPotatoConfig(**PINNED[name])
    _assert_band_equals_per_event(cfg, seed=7)
    if name == "every-priority":
        stats = _observe(cfg, 7, traced=False)["model_stats"]
        assert stats["upgrades_active"] and stats["promotions_running"]
        assert stats["demotions"] and stats["deflections"]
        by_priority = stats["delivered_by_priority"]
        assert by_priority[1] and by_priority[3]  # Active, Running


def test_band_equals_time_warp_under_rollback():
    """RouterLP's handlers with real rollbacks against the band program
    directly (``--processors 4 --batch 64``)."""
    cfg = HotPotatoConfig(n=8, duration=12.0, heartbeat=True, delivery_log=True)
    band = _observe(cfg, 7, traced=False)
    model = HotPotatoModel(cfg)
    warp = run_optimistic(
        model,
        EngineConfig(end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64,
                     seed=7),
    )
    assert warp.run.events_rolled_back > 0
    assert band["decline"] == ""
    assert warp.model_stats == band["model_stats"]
    assert warp.run.committed == band["counters"][1]
    assert sorted(model.delivery_log) == sorted(band["delivery_log"])


# ----------------------------------------------------------------------
# Hooks stay on the band program; every model refusal has a name, and
# refusing changes nothing but the speed.
# ----------------------------------------------------------------------
CFG = HotPotatoConfig(n=4, duration=10.0, heartbeat=True)
SEED = 11


class RenamedBusch(BuschHotPotatoPolicy):
    """Same rules, different type: the inlined rules must not be assumed."""

    name = "busch-subclass"


def _snapshot_payload(tmp_path):
    ckpt = Checkpointer(tmp_path, every=1, seq_events=64)
    SequentialEngine(HotPotatoModel(CFG), CFG.duration, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    snaps = list_snapshots(tmp_path)
    return read_snapshot(snaps[len(snaps) // 2])


#: What the engine once declined the band program for, and the steps the
#: program is then entered at: one entry per step for a boundary hook,
#: from the snapshot's step for a resume.
ENGINE_HOOKS = {
    "tracer": (lambda e, tmp: e.attach_tracer(Tracer()), [1]),
    "checkpointer": (
        lambda e, tmp: e.attach_checkpointer(
            Checkpointer(tmp / "unused", every=1 << 30)
        ),
        list(range(1, 10)),
    ),
    "watchdog": (
        lambda e, tmp: e.attach_health(Watchdog(HealthConfig())),
        list(range(1, 10)),
    ),
    "paranoid": (lambda e, tmp: setattr(e, "paranoid", True), list(range(1, 10))),
    "resumed snapshot": (lambda e, tmp: e.restore(_snapshot_payload(tmp)), None),
}


@pytest.mark.parametrize("name", ENGINE_HOOKS)
def test_engine_declines_by_name(name, tmp_path):
    """Nothing attached declines the band program: each hook runs it (a
    boundary hook one step at a time) and changes nothing but the speed.
    (The id is kept from when each of these was a named decline.)"""
    band = SequentialEngine(HotPotatoModel(CFG), CFG.duration, seed=SEED).run()
    model = HotPotatoModel(CFG)
    entries = band_spy(model)
    engine = SequentialEngine(model, CFG.duration, seed=SEED)
    attach, expected = ENGINE_HOOKS[name]
    attach(engine, tmp_path)
    if expected is None:
        step = engine._resume["step"]
        assert step > 2
        expected = [step]
    hooked = engine.run()
    assert entries == expected
    assert hooked.run.band_decline_reason == ""
    assert hooked.run.as_dict()["band_decline_reason"] == ""
    assert hooked.model_stats == band.model_stats
    assert hooked.run.committed == band.run.committed
    assert hooked.run.makespan_seconds == band.run.makespan_seconds


MODEL_DECLINES = {
    "policy 'greedy'": (CFG, dict(policy=GreedyPolicy())),
    "policy 'busch-subclass'": (CFG, dict(policy=RenamedBusch())),
    "topology 'mesh'": (
        HotPotatoConfig(n=4, duration=10.0, topology="mesh"), {},
    ),
    "fault plan": (CFG, dict(fault_plan=generate_plan(
        TorusTopology(4), duration=10.0, link_fail_rate=0.1, seed=3,
    ))),
    "adversarial injection plan": (CFG, dict(injection_plan=InjectionPlan(
        entries=(InjectionEvent(step=1, node=0, dest=5),)
    ))),
}


@pytest.mark.parametrize("name", MODEL_DECLINES)
def test_model_declines_by_name(name):
    cfg, model_kw = MODEL_DECLINES[name]
    model = HotPotatoModel(cfg, **model_kw)
    assert model.band_program() is None
    assert model.band_decline_reason.startswith(name)
    declined = _observe(cfg, SEED, traced=False, **model_kw)
    assert declined["decline"].startswith(name)
    assert declined["entries"] == []
    # A tracer neither hides the reason nor changes the run.
    traced = _observe(cfg, SEED, traced=True, **model_kw)
    assert traced["decline"] == declined["decline"]
    assert traced["model_stats"] == declined["model_stats"]
    if name == "policy 'busch-subclass'":
        # The one model-side decline whose run the band program could
        # have made: same rules, so the same statistics bar the name.
        band = _observe(cfg, SEED, traced=False)["model_stats"]
        theirs = dict(declined["model_stats"], policy="busch")
        assert theirs == band


def test_models_without_a_program_record_no_decline():
    from repro.core.engine import run_sequential
    from repro.models.phold import PholdConfig, PholdModel

    run = run_sequential(PholdModel(PholdConfig(n_lps=8)), 5.0).run
    assert run.band_decline_reason == ""


def test_decline_reaches_the_recording_and_the_summary(tmp_path, capsys):
    """``repro.hotpotato`` prints nothing about the band program; the
    recording's stats line and ``repro.obs summary`` do."""
    from repro.hotpotato.__main__ import main as hotpotato
    from repro.obs import load_recording
    from repro.obs.__main__ import main as obs

    rec = tmp_path / "mesh.jsonl"
    base = ["--n", "4", "--duration", "6", "--metrics-out", str(rec)]
    assert hotpotato(base + ["--topology", "mesh"]) == 0
    assert "band" not in capsys.readouterr().out
    reason = load_recording(rec).stats["band_decline_reason"]
    assert reason.startswith("topology 'mesh'")
    assert obs(["summary", str(rec)]) == 0
    assert f"sequential band program not used: {reason}" in capsys.readouterr().out

    assert hotpotato(base) == 0  # torus: the band program runs
    capsys.readouterr()
    assert load_recording(rec).stats["band_decline_reason"] == ""
    assert obs(["summary", str(rec)]) == 0
    assert "band program" not in capsys.readouterr().out


def test_metrics_and_spans_stay_on_the_band_program():
    """``--metrics-out`` / ``--spans-out`` do not select the per-event
    loop: samples and ``exec`` spans keep their event-count pacing, at
    band granularity, and still account for every event."""
    from repro.obs.metrics import MetricsRecorder
    from repro.obs.spans import SpanTracer

    plain = SequentialEngine(HotPotatoModel(CFG), CFG.duration, seed=SEED).run()
    metrics = MetricsRecorder(interval=16)
    spans = SpanTracer(interval=16)
    engine = SequentialEngine(HotPotatoModel(CFG), CFG.duration, seed=SEED)
    result = engine.attach_metrics(metrics).attach_spans(spans).run()
    assert result.run.band_decline_reason == ""
    assert result.model_stats == plain.model_stats
    assert result.run.as_dict() == plain.run.as_dict()

    processed = result.run.processed
    steps = int(CFG.duration) - 1  # the program runs steps 1 .. 9
    execs = [s for s in spans.spans() if s.phase == "exec"]
    assert sum(s.n for s in execs) == processed
    assert all(s.n > 0 for s in execs)
    samples = metrics.samples
    assert sum(s.committed for s in samples) == processed
    gvts = [s.gvt for s in samples]
    assert gvts == sorted(gvts) and gvts[-1] == CFG.duration
    # In flight at a band edge: 64 packets plus 16 INJECTs and 16 HEARTBEATs
    # at most — not the empty heap the program leaves behind while it runs.
    assert all(0 < s.pending <= 96 for s in samples[:-1])
    # Three bands a step, each far above the 16-event interval: one span
    # and one sample per band, plus those of the per-event prefix.
    prefix = sum(1 for s in samples if s.gvt < 1.0)
    assert len(samples) == prefix + 3 * steps + 1
    assert len(execs) == prefix + 3 * steps


@pytest.fixture
def cli_entries(monkeypatch):
    """The steps at which CLI runs enter ``run_bands`` (a spy on the
    function the model offers)."""
    import repro.hotpotato.band as band

    entries = []
    program = band.run_bands

    def run_bands(engine, processed, step, end):
        entries.append(step)
        return program(engine, processed, step, end)

    monkeypatch.setattr(band, "run_bands", run_bands)
    return entries


def test_hooked_cli_runs_stay_on_the_band_program(tmp_path, capsys, cli_entries):
    """``--trace-out``, ``--checkpoint-dir`` then ``--resume``,
    ``--paranoid`` and ``--watchdog`` each run the band program and print
    the plain run's model lines."""
    from repro.hotpotato.__main__ import main as hotpotato

    base = ["--n", "16", "--duration", "20"]
    steps = list(range(1, 20))
    assert hotpotato(base) == 0
    plain = capsys.readouterr().out
    assert cli_entries == [1]
    ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
    runs = {
        "trace": (["--trace-out", str(tmp_path / "t.jsonl")], [1]),
        "checkpoint": (ckpt, steps),
        "paranoid": (["--paranoid"], steps),
        "watchdog": (["--watchdog"], steps),
    }
    for name, (flags, expected) in runs.items():
        cli_entries.clear()
        assert hotpotato(base + flags) == 0, name
        assert capsys.readouterr().out.endswith(plain), name
        assert cli_entries == expected, name

    snaps = list_snapshots(tmp_path / "ckpt")
    assert len(snaps) > 2
    for later in snaps[len(snaps) // 2:]:
        later.unlink()  # resume from the middle of the run
    step = read_snapshot(list_snapshots(tmp_path / "ckpt")[-1])["loop"]["step"]
    cli_entries.clear()
    assert hotpotato(base + ckpt + ["--resume"]) == 0
    assert capsys.readouterr().out.endswith(plain)
    assert cli_entries == steps[steps.index(step):] and step > 2


def test_traced_band_run_records_equal_the_reference():
    """A traced band run's recording is the per-event reference's, record
    for record, on a run long enough to reach every priority."""
    cfg = HotPotatoConfig(**PINNED["every-priority"])
    band = _observe(cfg, 7, traced=True)
    reference = _observe(cfg, 7, traced=True, reference=True)
    assert band["entries"] == [1] and reference["entries"] == []
    assert len(band["records"]) == 2 * band["counters"][0]
    assert band["records"] == reference["records"]
