"""The sequential band program equals the per-event loop it replaces.

``SequentialEngine.run`` hands every hot-potato run — any policy, torus
or mesh, stock injection or an adversary script, with or without a fault
plan — to :func:`repro.hotpotato.band.run_bands` from step 0's INIT on,
whatever is attached; the same model with its band program withheld
(``per_event_reference``) runs every event through the handler table
instead.  The two must agree on everything the per-event loop leaves
behind: statistics, counters, the delivery log in order, every router's
state and RNG, the events still pending at the barrier — wherever in a
band the barrier falls, before INIT included — and, traced, every EXEC /
COMMIT record in order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.policies import POLICIES
from repro.ckpt import Checkpointer, list_snapshots, read_snapshot
from repro.core.config import EngineConfig
from repro.core.engine import SequentialEngine
from repro.core.event import Event, EventPool
from repro.core.optimistic import run_optimistic
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.faults.plan import CRASH, LINK_DOWN, RECOVER, FaultEvent, FaultPlan
from repro.health import HealthConfig, Watchdog
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.net import TOPOLOGIES
from repro.scenarios.adversary import STRATEGIES, generate_injection_plan
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


class RenamedBusch(BuschHotPotatoPolicy):
    """Same rules, different type: the inlined rule must not be assumed
    (the band program calls its ``route`` as for any other policy)."""

    name = "busch-subclass"


def _policy(name: str):
    return RenamedBusch() if name == RenamedBusch.name else POLICIES[name]()


def _model_kw(
    cfg: HotPotatoConfig, adversary=None, policy=None, faults=None
) -> dict:
    """The model keywords for an optional ``(strategy, rate, steps)``
    adversary (a script of ``steps`` generation steps on ``cfg``'s grid),
    an optional policy name and an optional fault plan, or dict of
    ``generate_plan`` rates and seed."""
    topo = TOPOLOGIES[cfg.topology](cfg.n)
    kw: dict = {}
    if adversary is not None:
        strategy, rate, steps = adversary
        kw["injection_plan"] = generate_injection_plan(
            topo, strategy=strategy, duration=steps, rate=rate, seed=5,
        )
    if policy is not None:
        kw["policy"] = _policy(policy)
    if isinstance(faults, FaultPlan):
        kw["fault_plan"] = faults
    elif faults is not None:
        kw["fault_plan"] = generate_plan(topo, duration=cfg.duration, **faults)
    return kw


def _assert_band_equals_per_event(
    cfg: HotPotatoConfig, seed: int, adversary=None, policy=None, faults=None,
) -> None:
    """Untraced band program against the traced reference, field by
    field; then the traced band program's records against the
    reference's, record for record."""
    model_kw = _model_kw(cfg, adversary, policy, faults)
    band = _observe(cfg, seed, **model_kw)
    per_event = _observe(cfg, seed, reference=True, traced=True, **model_kw)
    assert band.pop("entries") == [0]
    assert per_event.pop("entries") == []
    records = per_event.pop("records")
    assert band.pop("records") == []
    for what in band:
        assert band[what] == per_event[what], what
    traced = _observe(cfg, seed, traced=True, **model_kw)
    assert traced["entries"] == [0]
    assert traced["records"] == records
    assert len(records) == 2 * per_event["counters"][0]


@st.composite
def cases(draw):
    step = draw(st.integers(min_value=0, max_value=9))
    end = draw(st.sampled_from(
        # Step 0: before INIT, after it, between INJECT and HEARTBEAT,
        # and after HEARTBEAT.
        [0.05, 0.3, 0.92, 0.97] if step == 0 else
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
        topology=draw(st.sampled_from(["torus", "mesh"])),
    )
    adversary = draw(st.none() | st.tuples(
        st.sampled_from(STRATEGIES),
        st.sampled_from([0.4, 1.0]),
        st.integers(min_value=1, max_value=8),
    ))
    policy = draw(st.sampled_from(sorted(POLICIES) + [RenamedBusch.name]))
    faults = draw(st.none() | st.fixed_dictionaries(
        {
            "link_fail_rate": st.sampled_from([0.05, 0.2]),
            "seed": st.integers(min_value=0, max_value=2**16),
        },
        optional={
            "heal_after": st.sampled_from([2, 5]),
            "router_crash_rate": st.sampled_from([0.1, 0.3]),
            "recover_after": st.sampled_from([2, 4]),
        },
    ))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return cfg, seed, adversary, policy, faults


@given(case=cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_band_equals_per_event(case):
    _assert_band_equals_per_event(*case)


#: The barrier inside each band and between each two (step 0's INIT
#: band included), the degenerate populations, and the upgrade chances
#: raised until every priority and every Busch rule fires within a few
#: steps, on the torus and the mesh; an adversary whose script runs out
#: before the run ends; a non-Busch policy, a Busch subclass and fault
#: plans, whose rules the band program once refused; and a half fill
#: (INIT's Bernoulli draws) with a router down and a link cut at step 0.
EVERY_PRIORITY = dict(
    n=6, duration=25.0, sleeping_upgrade_scale=0.5, active_upgrade_scale=0.2,
)
STEP_0_FAULTS = FaultPlan(events=(
    FaultEvent(0, CRASH, 7),
    FaultEvent(0, LINK_DOWN, 14, 0),
    FaultEvent(0, LINK_DOWN, 20, 1),
    FaultEvent(3, RECOVER, 7),
))
PINNED = {
    "before-init": dict(n=4, duration=0.05),
    "after-init": dict(n=4, duration=0.5),
    "between-step-0-inject-and-heartbeat": dict(
        n=4, duration=0.92, heartbeat=True
    ),
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
    "every-priority": dict(EVERY_PRIORITY, delivery_log=True),
    "mesh-every-priority": dict(EVERY_PRIORITY, topology="mesh", heartbeat=True),
    "mesh-proof-mode": dict(
        n=5, duration=12.0, topology="mesh", absorb_sleeping=False
    ),
    "adversary-hotspot": dict(
        n=6, duration=14.3, heartbeat=True, adversary=("hotspot", 0.6, 9)
    ),
    "policy-greedy": dict(n=4, duration=10.0, heartbeat=True, policy="greedy"),
    "policy-busch-subclass": dict(
        n=4, duration=10.0, heartbeat=True, policy=RenamedBusch.name
    ),
    "fault-plan": dict(
        n=4, duration=10.0, heartbeat=True,
        faults=dict(link_fail_rate=0.1, seed=3),
    ),
    "fault-plan-crashes": dict(
        n=6, duration=16.5, heartbeat=True, delivery_log=True,
        faults=dict(link_fail_rate=0.2, heal_after=4, router_crash_rate=0.3,
                    recover_after=3, seed=3),
    ),
    "two-choice-mesh-crashes": dict(
        n=6, duration=16.0, topology="mesh", policy="two-choice",
        faults=dict(link_fail_rate=0.2, router_crash_rate=0.3, seed=3),
    ),
    "half-fill-crash-at-step-0": dict(
        n=6, duration=6.0, initial_fill=0.5, heartbeat=True,
        faults=STEP_0_FAULTS,
    ),
    "mesh-half-fill-crash-at-step-0": dict(
        n=6, duration=6.0, initial_fill=0.5, heartbeat=True, topology="mesh",
        faults=STEP_0_FAULTS,
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_band_equals_per_event_pinned(name):
    kw = dict(PINNED[name])
    extra = {k: kw.pop(k, None) for k in ("adversary", "policy", "faults")}
    cfg = HotPotatoConfig(**kw)
    _assert_band_equals_per_event(cfg, 7, **extra)
    if extra["faults"] is not None and "crashes" in name:
        # Every fault rule the band program states fires here.
        stats = _observe(cfg, 7, **_model_kw(cfg, **extra))["model_stats"]
        assert stats["fault_dropped_crash"] and stats["fault_dropped_no_link"]
        assert stats["fault_deflections"]
    if name == "policy-busch-subclass":
        # Same rules as the inlined Busch rule, so the same statistics
        # bar the name.
        theirs = _observe(cfg, 7, **_model_kw(cfg, **extra))["model_stats"]
        ours = _observe(cfg, 7)["model_stats"]
        assert dict(theirs, policy="busch") == ours
    if name.endswith("crash-at-step-0"):
        # A half fill, less what the crashed router and the cut links
        # would have seeded.
        stats = _observe(cfg, 7, **_model_kw(cfg, **extra))["model_stats"]
        assert 0 < stats["initial_packets"] < 4 * 36 // 2
    if name.endswith("every-priority"):
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
    assert warp.model_stats == band["model_stats"]
    assert warp.run.committed == band["counters"][1]
    assert sorted(model.delivery_log) == sorted(band["delivery_log"])


# ----------------------------------------------------------------------
# Hooks stay on the band program, and change nothing but the speed.
# ----------------------------------------------------------------------
CFG = HotPotatoConfig(n=4, duration=10.0, heartbeat=True)
SEED = 11


def _snapshot_payload(tmp_path):
    ckpt = Checkpointer(tmp_path, every=1, seq_events=64)
    SequentialEngine(HotPotatoModel(CFG), CFG.duration, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    snaps = list_snapshots(tmp_path)
    return read_snapshot(snaps[len(snaps) // 2])


#: What the engine once declined the band program for, and the steps the
#: program is then entered at: once, at step 0 — or at the snapshot's
#: step for a resume.
ENGINE_HOOKS = {
    "tracer": (lambda e, tmp: e.attach_tracer(Tracer()), [0]),
    "checkpointer": (
        lambda e, tmp: e.attach_checkpointer(
            Checkpointer(tmp / "unused", every=1 << 30)
        ),
        [0],
    ),
    "watchdog": (
        lambda e, tmp: e.attach_health(Watchdog(HealthConfig())),
        [0],
    ),
    "paranoid": (lambda e, tmp: setattr(e, "paranoid", True), [0]),
    "resumed snapshot": (lambda e, tmp: e.restore(_snapshot_payload(tmp)), None),
}


@pytest.mark.parametrize("name", ENGINE_HOOKS)
def test_engine_declines_by_name(name, tmp_path):
    """Nothing attached declines the band program: each hook runs it,
    entered once (a boundary hook reads each step end in place), and
    changes nothing but the speed.  (The id is kept from when each of
    these was a named decline.)"""
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
    assert hooked.model_stats == band.model_stats
    assert hooked.run.committed == band.run.committed
    assert hooked.run.makespan_seconds == band.run.makespan_seconds


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
    assert result.model_stats == plain.model_stats
    assert result.run.as_dict() == plain.run.as_dict()

    processed = result.run.processed
    steps = int(CFG.duration) - 1  # steps 1 .. 9 after step 0
    execs = [s for s in spans.spans() if s.phase == "exec"]
    assert sum(s.n for s in execs) == processed
    assert all(s.n > 0 for s in execs)
    samples = metrics.samples
    assert sum(s.committed for s in samples) == processed
    gvts = [s.gvt for s in samples]
    assert gvts == sorted(gvts) and gvts[-1] == CFG.duration
    # In flight at a band edge: 64 packets plus 16 INJECTs and 16 HEARTBEATs
    # at most — not the empty heap the program leaves behind while it runs.
    assert all(0 < s.pending <= 96 for s in samples)
    # The last sample's count is the program's last report, and it is
    # what the per-event loop leaves in flight, though no event was built.
    assert engine._unbuilt is not None
    reference = _observe(CFG, SEED, reference=True)
    assert samples[-1].pending == len(reference["pending"])
    # Three bands a step, each far above the 16-event interval: one span
    # and one sample per band.  Step 0 has two bands that run anything:
    # INIT (reported with its empty ARRIVE band) and INJECT + HEARTBEAT.
    assert len(samples) == 2 + 3 * steps + 1
    assert len(execs) == 2 + 3 * steps
    assert [s.gvt for s in samples[:2]] == [0.6, 1.0]


@pytest.fixture
def cli_entries(monkeypatch):
    """The steps at which CLI runs enter ``run_bands`` (a spy on the
    function the model offers)."""
    import repro.hotpotato.band as band

    entries = []
    program = band.run_bands

    def run_bands(engine, processed, step, band=None):
        entries.append(step)
        return program(engine, processed, step, band)

    monkeypatch.setattr(band, "run_bands", run_bands)
    return entries


def test_hooked_cli_runs_stay_on_the_band_program(tmp_path, capsys, cli_entries):
    """``--trace-out``, ``--checkpoint-dir`` then ``--resume``,
    ``--paranoid`` and ``--watchdog`` each run the band program and print
    the plain run's model lines."""
    from repro.hotpotato.__main__ import main as hotpotato

    base = ["--n", "16", "--duration", "20"]
    assert hotpotato(base) == 0
    plain = capsys.readouterr().out
    assert cli_entries == [0]
    ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
    runs = {
        "trace": ["--trace-out", str(tmp_path / "t.jsonl")],
        "checkpoint": ckpt,
        "paranoid": ["--paranoid"],
        "watchdog": ["--watchdog"],
    }
    for name, flags in runs.items():
        cli_entries.clear()
        assert hotpotato(base + flags) == 0, name
        assert capsys.readouterr().out.endswith(plain), name
        assert cli_entries == [0], name

    snaps = list_snapshots(tmp_path / "ckpt")
    assert len(snaps) > 2
    for later in snaps[len(snaps) // 2:]:
        later.unlink()  # resume from the middle of the run
    step = read_snapshot(list_snapshots(tmp_path / "ckpt")[-1])["loop"]["step"]
    cli_entries.clear()
    assert hotpotato(base + ckpt + ["--resume"]) == 0
    assert capsys.readouterr().out.endswith(plain)
    assert cli_entries == [step] and step > 2


def test_traced_band_run_records_equal_the_reference():
    """A traced band run's recording is the per-event reference's, record
    for record, on a run long enough to reach every priority."""
    cfg = HotPotatoConfig(**PINNED["every-priority"])
    band = _observe(cfg, 7, traced=True)
    reference = _observe(cfg, 7, traced=True, reference=True)
    assert band["entries"] == [0] and reference["entries"] == []
    assert len(band["records"]) == 2 * band["counters"][0]
    assert band["records"] == reference["records"]


def test_a_hooked_run_builds_an_event_only_for_init(monkeypatch, tmp_path):
    """The watchdog (scanning packet ages at every step end), the paranoid
    checks and an idle checkpointer read each step end in place: the run
    builds no ``Event`` beyond its routers' INITs, and commits what a
    plain run commits."""
    cfg = HotPotatoConfig(n=8, duration=12.5, heartbeat=True)
    plain = SequentialEngine(HotPotatoModel(cfg), cfg.duration, seed=SEED).run()
    built = []
    init = Event.__init__
    monkeypatch.setattr(
        Event, "__init__",
        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw),
    )
    watchdog = Watchdog(HealthConfig(livelock_check_every=1))
    ckpt = Checkpointer(tmp_path, every=1 << 30)
    engine = SequentialEngine(
        HotPotatoModel(cfg), cfg.duration, seed=SEED, paranoid=True
    ).attach_health(watchdog).attach_checkpointer(ckpt)
    hooked = engine.run()
    assert len(built) == cfg.n * cfg.n
    assert watchdog.boundaries == ckpt.boundaries == 12 and not watchdog.events
    assert hooked.model_stats == plain.model_stats
    assert hooked.run.as_dict() == plain.run.as_dict()


def test_a_plain_run_builds_an_event_only_for_init(monkeypatch):
    """A plain run constructs one ``Event`` per router — its INIT — and
    leaves its final in-flight set unbuilt: the first read of
    ``engine.pending`` builds exactly the events the per-event loop
    leaves."""
    cfg = HotPotatoConfig(n=8, duration=12.5, heartbeat=True)
    reference = _observe(cfg, SEED, reference=True)
    built = {"init": 0, "acquire": 0}
    init = Event.__init__
    acquire = EventPool.acquire

    def counted_init(self, *args, **kw):
        built["init"] += 1
        init(self, *args, **kw)

    def counted_acquire(self, *args, **kw):
        built["acquire"] += 1
        return acquire(self, *args, **kw)

    monkeypatch.setattr(Event, "__init__", counted_init)
    monkeypatch.setattr(EventPool, "acquire", counted_acquire)
    engine = SequentialEngine(HotPotatoModel(cfg), cfg.duration, seed=SEED)
    result = engine.run()
    n_lps = cfg.n * cfg.n
    assert built["init"] <= n_lps and built["acquire"] <= n_lps
    assert result.run.committed == reference["counters"][1]
    pending = sorted(
        (tuple(ev.key), ev.dst, ev.kind, ev.data) for ev in engine.pending
    )
    assert pending == reference["pending"]
    assert built["init"] == n_lps + len(pending)
    assert len(engine.pending) == len(pending)  # built once
