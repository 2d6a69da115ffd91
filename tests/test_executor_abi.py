"""Executor-ABI conformance: band stepping is bit-identical to scalar.

The contract (docs/KERNEL.md, "Executor ABI & vectorized stepping"): the
Time Warp kernel steps the model's struct-of-arrays population whenever
the model offers one, and for every golden seed, fault plan and
checkpoint kill/resume combination that must commit exactly the event
sequence the scalar ``RouterLP`` population commits — under Time Warp
itself and under the conservative engine, which always builds scalar.
There is no product option that selects the scalar population on a
torus, so the tests use a foil: a model whose ``build_vectorized``
declines (``tests.kernel_models.scalar_population``).  Two observation
levels:

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
from tests.kernel_models import scalar_population as _scalar

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


def _model(faulted: bool, population: str = "vectorized") -> HotPotatoModel:
    model = HotPotatoModel(_cfg(), fault_plan=_fault_plan() if faulted else None)
    return _scalar(model) if population == "scalar" else model


def _engine(engine: str, population: str, seed: int, faulted: bool):
    """``engine`` over the scalar or the band-stepping population (the
    conservative engine has no plan consumer: scalar only)."""
    model = _model(faulted, population)
    if engine == "cons":
        assert population == "scalar"
        ccfg = ConservativeConfig(
            end_time=DURATION, n_pes=4, sync="yawns", seed=seed,
            lookahead=model.lookahead,
        )
        return ConservativeKernel(model, ccfg)
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=seed,
    )
    return TimeWarpKernel(model, ecfg)


def _pair(engine: str, seed: int, faulted: bool) -> dict:
    """The scalar reference on ``engine`` and Time Warp's band population."""
    return {
        "scalar": _engine(engine, "scalar", seed, faulted),
        "vectorized": _engine("opt", "vectorized", seed, faulted),
    }


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faultplan"])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_committed_sequence_identical(engine, seed, faulted):
    """Traced runs: the full committed event sequence matches scalar."""
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
    """Untraced runs (the fused fast path on opt) match scalar exactly."""
    results = {
        executor: eng.run()
        for executor, eng in _pair(engine, seed, faulted).items()
    }
    assert (
        results["vectorized"].model_stats == results["scalar"].model_stats
    )
    assert results["vectorized"].run.committed == results["scalar"].run.committed
    # The band population actually took the fused band path...
    assert results["vectorized"].run.soa_batches > 0
    assert (
        results["vectorized"].run.soa_lps_stepped
        == results["vectorized"].run.processed
    )
    assert results["vectorized"].run.soa_decline_reason == ""
    # ...and the scalar reference did not.
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
    def run(population):
        ecfg = EngineConfig(
            end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
            seed=GOLDEN_SEEDS[0], **overrides,
        )
        return TimeWarpKernel(_model(True, population), ecfg).run()

    scalar, vectorized = run("scalar"), run("vectorized")
    assert vectorized.model_stats == scalar.model_stats
    fused_expected = "cancellation" not in overrides and "rollback" not in overrides
    assert (vectorized.run.soa_batches > 0) == fused_expected
    # A declined plan names its reason; a stepped one leaves none.
    assert ("cancellation" in vectorized.run.soa_decline_reason) != fused_expected


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
    """A snapshot only restores into the population that wrote it:
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
    """A model without a band-stepping build runs the scalar batch and
    records no decline: nothing was on offer."""
    from repro.core.optimistic import run_optimistic
    from repro.models.phold import PholdConfig, PholdModel

    run = run_optimistic(
        PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2)),
        EngineConfig(end_time=10.0, n_pes=2, n_kps=4, seed=7),
    ).run
    assert run.committed > 0
    assert run.soa_batches == 0
    assert run.soa_decline_reason == ""


def test_vectorized_declines_on_mesh():
    """The hot-potato plan only covers the torus band layout; a mesh
    model declines, by name, and the kernel steps the scalar population
    — the same run the foil produces."""
    cfg = HotPotatoConfig(n=N, duration=DURATION, torus=False)
    assert HotPotatoModel(cfg).build_vectorized() is None
    ecfg = EngineConfig(end_time=DURATION, n_pes=4, n_kps=16, seed=7)
    declined = TimeWarpKernel(HotPotatoModel(cfg), ecfg).run()
    scalar = TimeWarpKernel(_scalar(HotPotatoModel(cfg)), ecfg).run()
    assert declined.model_stats == scalar.model_stats
    assert declined.run.soa_batches == 0
    assert "topology" in declined.run.soa_decline_reason
    assert scalar.run.soa_decline_reason == ""


def test_delivery_log_identical():
    """The commit-time delivery log (the one committed side effect beyond
    statistics) matches between executors on the fused fast path."""
    cfg = HotPotatoConfig(
        n=N, duration=DURATION, injector_fraction=1.0, delivery_log=True
    )
    logs = {}
    for executor in ("scalar", "vectorized"):
        model = HotPotatoModel(cfg)
        if executor == "scalar":
            _scalar(model)
        ecfg = EngineConfig(
            end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
            seed=GOLDEN_SEEDS[0],
        )
        TimeWarpKernel(model, ecfg).run()
        logs[executor] = sorted(model.delivery_log)
    assert logs["vectorized"] == logs["scalar"]
