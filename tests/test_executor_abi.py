"""Executor-ABI conformance: every engine dispatches through the table.

The contract (docs/KERNEL.md, "Executor ABI & the handler table"):
every engine runs the one population ``Model.build()`` returns and
executes its events through the model's per-kind handler table
(``Model.handlers``) — the sequential oracle, the conservative kernel
and Time Warp, traced or not, under either rollback strategy, over any
transport, in-process and in process-mode workers.  ``RouterLP`` has no
``forward`` of its own.  For every golden seed, fault plan and
checkpoint kill/resume combination the parallel engines must commit
exactly the event sequence the sequential oracle commits.  Two
observation levels:

* **Committed sequence** — with a :class:`~repro.core.trace.Tracer`
  attached both sides report the full committed ``(ts, lp, seq, kind)``
  sequence.
* **Committed fingerprint** — untraced; the model statistics include
  per-router event fingerprints, so any divergence in committed event
  content or order shows up.

The ``scalar`` / ``vectorized`` labels in ids and dict keys mean "the
sequential oracle" / "the engine under test"; ``tests.kernel_models.
plan_spy`` counts the calls the table serves.
"""

import shutil
from pathlib import Path

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
from repro.core.trace import Tracer
from repro.core.optimistic import run_optimistic
from repro.faults import generate_plan
from repro.faults.plan import PEStall
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import ARRIVE, HEARTBEAT, INIT, INJECT, ROUTE, RouterLP
from repro.net import TorusTopology
from tests.kernel_models import per_event_reference, plan_spy, transport_faults

N = 4
DURATION = 12.0
GOLDEN_SEEDS = (7, 0x5EED)
#: The kinds every step of these runs exercises (INIT runs once per
#: router, and HEARTBEAT is off).
TABLE_KINDS = (ARRIVE, ROUTE, INJECT)


def _cfg() -> HotPotatoConfig:
    return HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)


def _fault_plan():
    return generate_plan(
        TorusTopology(N),
        duration=DURATION,
        link_fail_rate=0.02,
        heal_after=5,
        router_crash_rate=0.01,
        recover_after=4,
        seed=77,
    )


def _model(faulted: bool) -> HotPotatoModel:
    return HotPotatoModel(_cfg(), fault_plan=_fault_plan() if faulted else None)


def _engine(engine: str, seed: int, faulted: bool):
    """A fresh ``engine`` ("seq", "cons" or "opt") over the model."""
    model = _model(faulted)
    if engine == "seq":
        return SequentialEngine(model, DURATION, seed=seed)
    if engine == "cons":
        ccfg = EngineConfig(
            end_time=DURATION, n_pes=4, seed=seed,
        )
        return ConservativeKernel(model, ccfg)
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=seed,
    )
    return TimeWarpKernel(model, ecfg)


def _pair(engine: str, seed: int, faulted: bool) -> dict:
    """The sequential oracle and ``engine`` on the same model and seed."""
    return {
        "scalar": _engine("seq", seed, faulted),
        "vectorized": _engine(engine, seed, faulted),
    }


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faultplan"])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_committed_sequence_identical(engine, seed, faulted):
    """Traced runs: the full committed event sequence is the same."""
    sequences = {}
    stats = {}
    for executor, eng in _pair(engine, seed, faulted).items():
        tracer = Tracer()
        stats[executor] = eng.attach_tracer(tracer).run().model_stats
        sequences[executor] = tracer.committed_sequence()
    assert sequences["vectorized"] == sequences["scalar"]
    assert stats["vectorized"] == stats["scalar"]


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faultplan"])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_committed_fingerprint_identical_untraced(engine, seed, faulted):
    """Untraced runs (the fused fast path on opt) match the oracle."""
    engines = _pair(engine, seed, faulted)
    calls = plan_spy(engines["vectorized"].model, TABLE_KINDS)
    results = {executor: eng.run() for executor, eng in engines.items()}
    assert (
        results["vectorized"].model_stats == results["scalar"].model_stats
    )
    assert results["vectorized"].run.committed == results["scalar"].run.committed
    # The table ran the run.
    assert all(calls)


@pytest.mark.parametrize("overrides", [
    {"rollback": "copy"},
], ids=["copy"])
def test_vectorized_across_scheduler_structures(overrides):
    """The population commits identically under copy rollback, and the
    table runs there too: the copy strategy's snapshot is the batch's."""
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
        seed=GOLDEN_SEEDS[0], **overrides,
    )
    model = _model(True)
    calls = plan_spy(model, TABLE_KINDS)
    vectorized = TimeWarpKernel(model, ecfg).run()
    scalar = _engine("seq", GOLDEN_SEEDS[0], True).run()
    assert vectorized.model_stats == scalar.model_stats
    assert vectorized.run.events_rolled_back > 0
    assert all(calls)


@pytest.mark.parametrize("engine", ["opt"])
def test_vectorized_checkpoint_kill_resume(tmp_path, engine):
    """Kill at every snapshot boundary, resume, and land on the sequential
    oracle's exact committed statistics (the shared state lists
    round-trip through the snapshot format)."""
    seed = GOLDEN_SEEDS[0]
    oracle = _engine("seq", seed, False).run()
    marker = {"case": f"vec-{engine}"}

    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=64)
    recorded = (
        _engine(engine, seed, False)
        .attach_checkpointer(ckpt)
        .run()
    )
    assert recorded.model_stats == oracle.model_stats
    snaps = list_snapshots(snap_dir)
    assert len(snaps) > 3

    for snap in snaps:
        d = tmp_path / f"resume_{snap.stem}"
        d.mkdir()
        shutil.copy(snap, d / snap.name)
        ck = Checkpointer(d, every=1 << 30, marker=marker, seq_events=64)
        ck.load_latest()
        resumed = (
            _engine(engine, seed, False)
            .attach_checkpointer(ck)
            .run()
        )
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the sequential oracle"
        )


def test_band_stepped_snapshot_resumes_per_event(tmp_path):
    """How a run is observed is not part of a snapshot: checkpoint an
    untraced Time Warp run, resume it traced, and the resumed run commits
    exactly the rest of the sequential oracle's sequence."""
    seed = GOLDEN_SEEDS[0]
    oracle_tracer = Tracer()
    oracle = _engine("seq", seed, False).attach_tracer(oracle_tracer).run()
    sequence = oracle_tracer.committed_sequence()

    marker = {"case": "cross"}
    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=64)
    recording = _engine("opt", seed, False)
    calls = plan_spy(recording.model, TABLE_KINDS)
    recording.attach_checkpointer(ckpt).run()
    assert all(calls)
    snaps = list_snapshots(snap_dir)
    mid = snaps[len(snaps) // 2]
    d = tmp_path / "resume_traced"
    d.mkdir()
    shutil.copy(mid, d / mid.name)
    ck = Checkpointer(d, every=1 << 30, marker=marker, seq_events=64)
    ck.load_latest()
    tracer = Tracer()
    resumed = (
        _engine("opt", seed, False)
        .attach_tracer(tracer)
        .attach_checkpointer(ck)
        .run()
    )
    assert resumed.model_stats == oracle.model_stats
    rest = tracer.committed_sequence()
    assert 0 < len(rest) < len(sequence)
    assert rest == sequence[-len(rest):]


#: A mid-run snapshot of ``_engine("cons", 7, False)`` written by the
#: YAWNS loop the conservative kernel had before it ran Time Warp's: its
#: per-PE counters fit no kernel now.
FORMAT_6_CONSERVATIVE = Path(__file__).parent / "data" / "conservative_format6.rpsnap"


def test_snapshot_with_old_payload_format_refused():
    """Format-1 snapshots of a sequential or conservative run hold dict
    payloads the routers cannot execute, and a format-6 conservative one
    holds the deleted YAWNS loop's state: refused by name, up front."""
    from repro.ckpt.snapshot import read_snapshot
    from repro.ckpt.state import PAYLOAD_FORMAT
    from repro.errors import SnapshotError

    for engine, old_format in (("opt", 1), ("cons", 6)):
        fresh = _engine(engine, GOLDEN_SEEDS[0], False)
        payload = fresh.snapshot()
        assert payload["format"] == PAYLOAD_FORMAT == 9
        assert payload["kind"] == fresh.kind
        if old_format == 6:
            old = read_snapshot(FORMAT_6_CONSERVATIVE)
            assert (old["format"], old["kind"]) == (6, "conservative")
        else:
            old = {**payload, "format": 1}
        with pytest.raises(SnapshotError, match=f"payload format {old_format}"):
            fresh.restore(old)


def test_format_2_snapshot_refused_before_the_first_event(tmp_path, monkeypatch):
    """A format-2 file pickles every event with one more slot (the lazy
    cancellation journal): it still loads, and the restore refuses it by
    number before anything runs."""
    from repro.ckpt.snapshot import read_snapshot, write_snapshot
    from repro.core.event import Event
    from repro.errors import SnapshotError

    seed = GOLDEN_SEEDS[0]
    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker={"case": "fmt"})
    _engine("opt", seed, False).attach_checkpointer(ckpt).run()
    snaps = list_snapshots(snap_dir)
    mid = snaps[len(snaps) // 2]
    payload = read_snapshot(mid)
    assert any(payload["pending"]), "the snapshot holds no event"
    payload["format"] = 2

    def format_2_state(ev):
        state = [getattr(ev, name) for name in Event._STATE]
        state.insert(Event._STATE.index("sent") + 1, None)
        return tuple(state)

    old_dir = tmp_path / "old"
    old_dir.mkdir()
    with monkeypatch.context() as patch:
        patch.setattr(Event, "__getstate__", format_2_state)
        write_snapshot(old_dir / mid.name, payload)

    ck = Checkpointer(old_dir, every=1 << 30, marker={"case": "fmt"})
    ck.load_latest()
    fresh = _engine("opt", seed, False)
    with pytest.raises(SnapshotError, match="payload format 2"):
        fresh.attach_checkpointer(ck)
    assert sum(pe.stats.processed for pe in fresh.pes) == 0


def test_vectorized_declines_without_plan():
    """A model without a handler table runs ``forward`` for every event."""
    from repro.core.optimistic import run_optimistic
    from repro.models.phold import PholdConfig, PholdModel

    model = PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2))
    assert model.handlers(model.build(), []) is None
    run = run_optimistic(
        model, EngineConfig(end_time=10.0, n_pes=2, n_kps=4, seed=7),
    ).run
    assert run.committed > 0


def test_vectorized_declines_on_mesh():
    """The handlers honour link existence: Time Warp runs the table on a
    mesh and commits what the oracle — the band program, which reads the
    mesh's link mask — commits.  (The id is kept from when both sides
    declined the mesh.)"""
    cfg = HotPotatoConfig(n=N, duration=DURATION, topology="mesh")
    model = HotPotatoModel(cfg)
    calls = plan_spy(model, TABLE_KINDS)
    ecfg = EngineConfig(end_time=DURATION, n_pes=4, n_kps=16, seed=7)
    offered = TimeWarpKernel(model, ecfg).run()
    oracle = SequentialEngine(HotPotatoModel(cfg), DURATION, seed=7).run()
    assert offered.model_stats == oracle.model_stats
    assert all(calls)
    assert model.band_program() is not None


def test_delivery_log_identical():
    """The commit-time delivery log (the one committed side effect beyond
    statistics) matches the oracle's on the fused fast path."""
    cfg = HotPotatoConfig(
        n=N, duration=DURATION, injector_fraction=1.0, delivery_log=True
    )
    logs = {}
    for executor in ("scalar", "vectorized"):
        model = HotPotatoModel(cfg)
        if executor == "scalar":
            SequentialEngine(model, DURATION, seed=GOLDEN_SEEDS[0]).run()
        else:
            ecfg = EngineConfig(
                end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
                seed=GOLDEN_SEEDS[0],
            )
            TimeWarpKernel(model, ecfg).run()
        logs[executor] = sorted(model.delivery_log)
    assert logs["vectorized"] == logs["scalar"]


#: How a run may be observed or configured without leaving the table:
#: mode -> (run_optimistic keyword arguments, EngineConfig overrides).
#: Process mode refuses engine fault plans up front (the wrapper sits on
#: one in-process transport), so the transport cell is in-process only.
ANY_WAY = {
    "traced": (lambda: {"tracer": Tracer()}, {}),
    "copy": (lambda: {}, {"rollback": "copy"}),
    "transport-faults": (
        lambda: {
            "faults": transport_faults(
                drop=0.1, dup=0.1, delay=0.2, stalls=(PEStall(1, 3, 4),)
            )
        },
        {},
    ),
}
ANY_WAY_CELLS = [
    (mode, procs)
    for mode in ANY_WAY
    for procs in (1, 2)
    if not (mode == "transport-faults" and procs > 1)
]


@pytest.mark.parametrize(
    "mode, procs", ANY_WAY_CELLS, ids=[f"{m}-procs{p}" for m, p in ANY_WAY_CELLS]
)
def test_table_runs_under_tracer_copy_and_faulty_transport(mode, procs):
    """A Tracer, copy rollback or a fault-wrapped transport changes
    nothing about how events execute: the batch still calls the table,
    and the run commits exactly what the sequential oracle commits."""
    hooks, overrides = ANY_WAY[mode]
    model = _model(False)
    calls = plan_spy(model, TABLE_KINDS)
    kwargs = hooks()
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
        seed=GOLDEN_SEEDS[0], procs=procs, gvt_interval=4, **overrides,
    )
    offered = run_optimistic(model, ecfg, **kwargs)
    oracle_tracer = Tracer()
    scalar = _engine("seq", GOLDEN_SEEDS[0], False).attach_tracer(oracle_tracer).run()
    assert all(calls)
    assert offered.model_stats == scalar.model_stats
    assert offered.run.committed == scalar.run.committed
    if "tracer" in kwargs:
        assert kwargs["tracer"].committed_sequence() == oracle_tracer.committed_sequence()
    if mode == "transport-faults":
        assert offered.run.transport_delayed > 0
        assert offered.run.pe_stall_rounds > 0


@pytest.mark.parametrize("engine", ["seq", "cons"])
def test_every_engine_serves_every_router_kind_from_the_table(engine):
    """The oracle's per-event loop (the model's band program withheld)
    and the conservative kernel serve all five router kinds from the
    table: the router class has no ``forward`` to fall back on."""
    assert "forward" not in vars(RouterLP)
    cfg = HotPotatoConfig(n=N, duration=DURATION, topology="mesh", heartbeat=True)
    model = HotPotatoModel(cfg)
    kinds = (INIT, ARRIVE, ROUTE, INJECT, HEARTBEAT)
    calls = plan_spy(model, kinds)
    if engine == "seq":
        run = SequentialEngine(per_event_reference(model), DURATION, seed=7).run()
    else:
        ccfg = EngineConfig(
            end_time=DURATION, n_pes=4, seed=7,
        )
        run = ConservativeKernel(model, ccfg).run()
    assert run.run.committed > 0
    assert all(count > 0 for count in calls), dict(zip(kinds, calls))
