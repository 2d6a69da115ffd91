"""Executor-ABI conformance: vectorized stepping is bit-identical to scalar.

The contract (docs/KERNEL.md, "Executor ABI & vectorized stepping"): for
every engine that has executor modes (conservative and Time Warp; the
sequential oracle has none), golden seed, fault plan and checkpoint
kill/resume combination, ``executor="vectorized"`` must commit exactly
the event sequence the scalar executor commits.  Two observation levels:

* **Committed sequence** — with a :class:`~repro.core.trace.Tracer`
  attached the Time Warp kernel keeps its generic execute path, so this
  level exercises the SoA LPs' scalar handlers event by event and
  compares the full committed ``(ts, lp, seq, kind)`` sequence.
* **Committed fingerprint** — without a tracer the kernel installs the
  fused band-stepping batch (the true vectorized fast path); the
  model statistics include per-router event fingerprints, so any
  divergence in committed event content or order shows up.
"""

import shutil

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.core.optimistic import TimeWarpKernel
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.net import TorusTopology

N = 4
DURATION = 12.0
GOLDEN_SEEDS = (7, 0x5EED)


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


def _engine(engine: str, executor: str, seed: int, faulted: bool):
    model = _model(faulted)
    if engine == "cons":
        ccfg = ConservativeConfig(
            end_time=DURATION, n_pes=4, sync="yawns", seed=seed,
            lookahead=model.lookahead, executor=executor,
        )
        return ConservativeKernel(model, ccfg)
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=seed,
        executor=executor,
    )
    return TimeWarpKernel(model, ecfg)


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faultplan"])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_committed_sequence_identical(engine, seed, faulted):
    """Traced runs: the full committed event sequence matches scalar."""
    sequences = {}
    stats = {}
    for executor in ("scalar", "vectorized"):
        tracer = Tracer()
        eng = _engine(engine, executor, seed, faulted).attach_tracer(tracer)
        stats[executor] = eng.run().model_stats
        sequences[executor] = tracer.committed_sequence()
    assert sequences["vectorized"] == sequences["scalar"]
    assert stats["vectorized"] == stats["scalar"]


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faultplan"])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_committed_fingerprint_identical_untraced(engine, seed, faulted):
    """Untraced runs (the fused fast path on opt) match scalar exactly."""
    results = {
        executor: _engine(engine, executor, seed, faulted).run()
        for executor in ("scalar", "vectorized")
    }
    assert (
        results["vectorized"].model_stats == results["scalar"].model_stats
    )
    assert results["vectorized"].run.committed == results["scalar"].run.committed
    if engine == "opt":
        # The vectorized kernel actually took the fused band path...
        assert results["vectorized"].run.soa_batches > 0
        assert (
            results["vectorized"].run.soa_lps_stepped
            == results["vectorized"].run.processed
        )
        # ...and the scalar kernel did not.
        assert results["scalar"].run.soa_batches == 0
        assert results["scalar"].run.soa_lps_stepped == 0


@pytest.mark.parametrize("overrides", [
    {"queue": "ladder"},
    {"cancellation": "lazy"},
    {"rollback": "copy"},
], ids=["ladder", "lazy", "copy"])
def test_vectorized_across_scheduler_structures(overrides):
    """The SoA population commits identically under every scheduler
    structure — including the lazy/copy configurations where the kernel
    falls back from the fused band batch to the scalar batch."""
    def run(executor):
        ecfg = EngineConfig(
            end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
            seed=GOLDEN_SEEDS[0], executor=executor, **overrides,
        )
        return TimeWarpKernel(_model(True), ecfg).run()

    scalar, vectorized = run("scalar"), run("vectorized")
    assert vectorized.model_stats == scalar.model_stats
    fused_expected = "cancellation" not in overrides and "rollback" not in overrides
    assert (vectorized.run.soa_batches > 0) == fused_expected


@pytest.mark.parametrize("engine", ["opt"])
def test_vectorized_checkpoint_kill_resume(tmp_path, engine):
    """Kill at every snapshot boundary, resume, and land on the scalar
    oracle's exact committed statistics (SoA state round-trips through
    the snapshot format)."""
    seed = GOLDEN_SEEDS[0]
    oracle = _engine(engine, "scalar", seed, False).run()
    marker = {"case": f"vec-{engine}"}

    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=64)
    recorded = (
        _engine(engine, "vectorized", seed, False)
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
            _engine(engine, "vectorized", seed, False)
            .attach_checkpointer(ck)
            .run()
        )
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the scalar oracle"
        )


def test_cross_executor_resume_refused(tmp_path):
    """A snapshot only restores into the executor mode that wrote it:
    the scalar and SoA populations carry different event-payload layouts,
    so a cross-mode restore is refused up front rather than failing
    somewhere inside a handler."""
    from repro.errors import SnapshotError

    seed = GOLDEN_SEEDS[0]
    marker = {"case": "cross"}
    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=64)
    _engine("opt", "vectorized", seed, False).attach_checkpointer(ckpt).run()
    snaps = list_snapshots(snap_dir)
    mid = snaps[len(snaps) // 2]
    d = tmp_path / "resume_scalar"
    d.mkdir()
    shutil.copy(mid, d / mid.name)
    ck = Checkpointer(d, every=1 << 30, marker=marker, seq_events=64)
    ck.load_latest()
    with pytest.raises(SnapshotError, match="executor"):
        _engine("opt", "scalar", seed, False).attach_checkpointer(ck)


def test_vectorized_declines_without_plan():
    """Models without a vectorized build fall back to scalar silently."""
    from repro.core.optimistic import run_optimistic
    from repro.models.phold import PholdConfig, PholdModel

    ecfg = EngineConfig(
        end_time=10.0, n_pes=2, n_kps=4, seed=7, executor="vectorized"
    )
    scalar = run_optimistic(
        PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2)),
        EngineConfig(end_time=10.0, n_pes=2, n_kps=4, seed=7),
    )
    vectorized = run_optimistic(
        PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2)), ecfg
    )
    assert vectorized.model_stats == scalar.model_stats
    assert vectorized.run.soa_batches == 0


def test_vectorized_declines_on_mesh():
    """The hot-potato plan only covers the torus band layout; a mesh
    model runs the vectorized executor as scalar SoA-free fallback."""
    cfg = HotPotatoConfig(n=N, duration=DURATION, torus=False)
    assert HotPotatoModel(cfg).build_vectorized() is None
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, seed=7, executor="vectorized"
    )
    vectorized = TimeWarpKernel(HotPotatoModel(cfg), ecfg).run()
    scalar = TimeWarpKernel(
        HotPotatoModel(cfg),
        EngineConfig(end_time=DURATION, n_pes=4, n_kps=16, seed=7),
    ).run()
    assert vectorized.model_stats == scalar.model_stats
    assert vectorized.run.soa_batches == 0


def test_delivery_log_identical():
    """The commit-time delivery log (the one committed side effect beyond
    statistics) matches between executors on the fused fast path."""
    cfg = HotPotatoConfig(
        n=N, duration=DURATION, injector_fraction=1.0, delivery_log=True
    )
    logs = {}
    for executor in ("scalar", "vectorized"):
        model = HotPotatoModel(cfg)
        ecfg = EngineConfig(
            end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
            seed=GOLDEN_SEEDS[0], executor=executor,
        )
        TimeWarpKernel(model, ecfg).run()
        logs[executor] = sorted(model.delivery_log)
    assert logs["vectorized"] == logs["scalar"]
