"""Who frees an Event: the pool at commit, the reference counter elsewhere.

No ``Event`` is part of a reference cycle (its heap entry is the heap's
alone), so an engine holds the cyclic collector off while it runs.  Four
things are pinned here: a finished run leaves no ``Event`` for the
collector to find, on any engine or rollback path; ``run`` hands the
collector back in the state it found it, however it exits; what a run
leaves alive is frozen out of every later pass until the next run's way in
frees the dead; and a snapshot of a rollback-heavy run pickles and resumes
without a heap entry.
"""

import gc
import pickle
import weakref

import pytest

from repro.baselines.buffered import BufferedConfig, BufferedModel
from repro.ckpt import wall_deadline
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.event import Event
from repro.core.lp import LogicalProcess, Model
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.queue import PendingQueue
from repro.errors import SchedulingError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.mm1 import MM1Config, MM1Model
from repro.models.phold import PholdConfig, PholdModel
from repro.mp.kernel import MPWorkerKernel
from repro.vt.time import EventKey
from tests.kernel_models import band_spy, per_event_reference
from tests.test_ckpt_resume import _check_resume_from_every_snapshot

SEED = 7


def _hotpotato(topology="torus", duration=20.0, n=8):
    return HotPotatoModel(
        HotPotatoConfig(
            n=n, duration=duration, injector_fraction=1.0, topology=topology
        )
    )


#: name -> (model factory, end time, EngineConfig extras).  M/M/1 is a
#: feed-forward line: only a scattered mapping makes upstream stations
#: run after downstream ones.
MODELS = {
    "torus": (_hotpotato, 20.0, {}),
    "mesh": (lambda: _hotpotato("mesh"), 20.0, {}),
    "phold": (lambda: PholdModel(PholdConfig(n_lps=32, jobs_per_lp=4)), 40.0, {}),
    "mm1": (
        lambda: MM1Model(MM1Config(stations=16, arrival_rate=0.5)),
        300.0,
        {"mapping": "random", "batch_size": 64},
    ),
    "buffered": (lambda: BufferedModel(BufferedConfig(n=8, duration=20.0)), 20.0, {}),
}


def _time_warp(name, **overrides):
    make, end, extras = MODELS[name]
    cfg = {"n_pes": 4, "n_kps": 16, "batch_size": 2048, "seed": SEED}
    return TimeWarpKernel(
        make(), EngineConfig(end_time=end, **{**cfg, **extras, **overrides})
    )


def _events_left_to_the_collector(engine):
    """Run ``engine``; count the Events only a collection could free.

    The engine stays referenced, so what is found is what died during the
    run, not the engine's own (cyclic, and rightly so) closures.  ``run``
    freezes what is alive when it returns, earlier tests' engines and this
    run's garbage included, so each collection here unfreezes first.
    """
    gc.unfreeze()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = engine.run()
        gc.unfreeze()
        gc.collect()
        return sum(type(o) is Event for o in gc.garbage), result
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# ----------------------------------------------------------------------
# (a) Nothing for the collector to find.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [{}, {"rollback": "copy"}],
    ids=["aggressive", "copy"],
)
@pytest.mark.parametrize("name", list(MODELS))
def test_time_warp_leaves_no_cyclic_event(name, overrides):
    left, result = _events_left_to_the_collector(_time_warp(name, **overrides))
    assert result.run.events_rolled_back > 0
    assert left == 0


def test_sequential_per_event_loop_leaves_no_cyclic_event():
    model = per_event_reference(_hotpotato())
    entries = band_spy(model)
    left, _ = _events_left_to_the_collector(
        SequentialEngine(model, 20.0, seed=SEED)
    )
    assert entries == []  # the per-event loop ran
    assert left == 0


def test_sequential_band_program_leaves_no_cyclic_event():
    """The band program drops every pending event on entry and builds
    new ones on exit; none of them waits for a collection."""
    model = _hotpotato()
    entries = band_spy(model)
    left, _ = _events_left_to_the_collector(SequentialEngine(model, 20.0, seed=SEED))
    assert entries == [1]
    assert left == 0


def test_hooked_band_program_leaves_no_cyclic_event():
    """A hooked run leaves and re-enters the program at every step end."""
    model = _hotpotato()
    entries = band_spy(model)
    engine = SequentialEngine(model, 20.0, seed=SEED, paranoid=True)
    left, _ = _events_left_to_the_collector(engine)
    assert entries == list(range(1, 20))
    assert left == 0


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_conservative_leaves_no_cyclic_event(protocol):
    kernel = ConservativeKernel(
        _hotpotato(), ConservativeConfig(end_time=20.0, n_pes=4, seed=SEED)
    )
    left, _ = _events_left_to_the_collector(kernel)
    assert left == 0


# ----------------------------------------------------------------------
# (b) The collector comes back as it was found.
# ----------------------------------------------------------------------
class _BackwardsLP(LogicalProcess):
    """Sends into its own past on the first event it handles."""

    def on_init(self):
        self.send(1.0, self.id, "TICK")

    def forward(self, event):
        self.send(self.now, self.id, "TICK")

    def reverse(self, event):
        pass


class _BackwardsModel(Model):
    lookahead = 0.5

    def build(self):
        return [_BackwardsLP(i) for i in range(4)]

    def collect_stats(self, lps):
        return {}


def _engines(make_model, end):
    """The three in-process engines over ``make_model()``, by name."""
    return {
        "sequential": lambda: SequentialEngine(make_model(), end, seed=SEED),
        "conservative": lambda: ConservativeKernel(
            make_model(), ConservativeConfig(end_time=end, n_pes=2, seed=SEED)
        ),
        "optimistic": lambda: TimeWarpKernel(
            make_model(),
            EngineConfig(end_time=end, n_pes=2, n_kps=2, batch_size=64, seed=SEED),
        ),
    }


ENGINES = ["sequential", "conservative", "optimistic"]


class _CollectorProbe(LogicalProcess):
    """Records whether the collector is enabled while events execute."""

    seen: list

    def on_init(self):
        self.send(1.0, self.id, "TICK")

    def forward(self, event):
        self.seen.append(gc.isenabled())
        self.send(self.now + 1.0, self.id, "TICK")

    def reverse(self, event):
        pass


class _ProbeModel(Model):
    lookahead = 1.0

    def __init__(self):
        self.seen = []

    def build(self):
        lps = [_CollectorProbe(i) for i in range(4)]
        for lp in lps:
            lp.seen = self.seen
        return lps

    def collect_stats(self, lps):
        return {}


@pytest.fixture
def collector_enabled():
    """Every test here starts, and must end, with the collector on."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "a run left the collector disabled"


@pytest.mark.parametrize("engine", ENGINES)
def test_collector_paused_during_run_and_restored_after(engine, collector_enabled):
    model = _ProbeModel()
    _engines(lambda: model, 10.0)[engine]().run()
    assert model.seen and not any(model.seen)
    assert gc.isenabled()


@pytest.mark.parametrize("engine", ENGINES)
def test_collector_the_caller_disabled_stays_disabled(engine, collector_enabled):
    gc.disable()
    try:
        _engines(_ProbeModel, 10.0)[engine]().run()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ENGINES)
def test_collector_restored_when_a_send_is_refused(engine, collector_enabled):
    with pytest.raises(SchedulingError):
        _engines(_BackwardsModel, 10.0)[engine]().run()
    assert gc.isenabled()


@pytest.mark.parametrize("engine", ENGINES)
def test_collector_restored_after_a_deadline_interrupt(engine, collector_enabled):
    seen = []
    with pytest.raises(KeyboardInterrupt):
        with wall_deadline(0.2, None):
            model = _ProbeModel()
            seen = model.seen
            _engines(lambda: model, 1e9)[engine]().run()
    assert seen and not any(seen)  # interrupted inside the paused region
    assert gc.isenabled()


class _NoRings:
    """Stands in for a worker's ring transport; nothing is sent."""

    name = "ring"

    def bind(self, kernel):
        pass

    def deliver(self, ev, src_pe, dst_pe):
        raise AssertionError("no send expected")


def test_worker_kernel_pauses_and_restores_around_an_interrupted_wave(
    collector_enabled, monkeypatch
):
    """The worker overrides the executive, not ``run``: it cannot skip
    the pause, and a wave that ends the run early (``None``) restores
    the collector like any other exit."""
    assert MPWorkerKernel.run is TimeWarpKernel.run
    kernel = MPWorkerKernel(
        _hotpotato(),
        EngineConfig(
            end_time=20.0, n_pes=4, n_kps=16, seed=SEED, procs=2,
        ),
        worker_index=0,
        transport=_NoRings(),
        ctl_in=None,
        ctl_out=None,
    )
    seen = []
    monkeypatch.setattr(kernel, "_run", lambda: seen.append(gc.isenabled()))
    assert kernel.run() is None
    assert seen == [False]
    assert gc.isenabled()


# ----------------------------------------------------------------------
# (c) A finished run is frozen; the next run's way in frees the dead.
# ----------------------------------------------------------------------
def _tracked_after_run(engine, n):
    """Objects a collection would walk right after an n x n torus run."""
    _engines(lambda: _hotpotato(n=n), 10.0)[engine]().run()
    assert gc.isenabled()
    return len(gc.get_objects())


@pytest.mark.parametrize("engine", ENGINES)
def test_a_finished_run_is_invisible_to_the_collector(engine, collector_enabled):
    """Unfrozen, the population, closures and pending events a run
    leaves alive grow with N (about 5,000 more tracked objects at 16x16
    than at 8x8) and every later pass walks them."""
    small = _tracked_after_run(engine, 8)
    large = _tracked_after_run(engine, 16)
    assert large - small < 100, (small, large)


@pytest.mark.parametrize("engine", ENGINES)
def test_collector_the_caller_disabled_is_not_frozen(engine, collector_enabled):
    gc.unfreeze()
    gc.disable()
    try:
        _engines(_ProbeModel, 10.0)[engine]().run()
        assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_dropped_engine_dies_when_the_next_run_starts(engine, collector_enabled):
    engines = _engines(_ProbeModel, 10.0)
    first = engines[engine]()
    first.run()
    dead = weakref.ref(first)
    del first
    gc.collect()
    assert dead() is not None  # cyclic and frozen: the documented cost
    engines[engine]().run()
    assert dead() is None


def test_process_mode_returns_with_the_collector_enabled(collector_enabled):
    """The parent forks, waits and merges inside the paused scope."""
    config = EngineConfig(end_time=10.0, n_pes=4, n_kps=16, seed=SEED, procs=2)
    result = run_optimistic(_hotpotato(), config)
    assert result.run.procs == 2
    assert gc.isenabled()


# ----------------------------------------------------------------------
# (d) Snapshots need no heap entry.
# ----------------------------------------------------------------------
def test_event_pickles_without_its_heap_entry():
    """A cancelled child still buried in a heap, reached through its
    parent's ``sent`` list: the pickle carries the two events and the
    child's serial, not the heap."""
    queue = PendingQueue()
    parent = Event(EventKey(1.0, 0, 0), 1, "k")
    child = Event(EventKey(2.0, 1, 0), 2, "k")
    parent.sent.append(child)
    queue.push(child)
    child.cancelled = True
    queue.note_cancelled()
    clone = pickle.loads(pickle.dumps(parent))
    (kid,) = clone.sent
    assert (kid.key, kid.serial, kid.cancelled) == (child.key, child.serial, True)
    assert not kid.in_pending


def test_rollback_heavy_run_resumes_identically_from_every_snapshot(tmp_path):
    """Kill at any GVT boundary of a ``batch_size=2048`` run — processed
    lists deep, dead entries in every heap — resume, and commit the
    identical run."""
    oracle = _time_warp("torus").run().run
    assert oracle.events_rolled_back > oracle.committed // 4
    n = _check_resume_from_every_snapshot(
        tmp_path, lambda: _time_warp("torus"), {"case": "rollback-heavy"}
    )
    assert n > 3
