"""Property tests for the cancellation modes.

Lazy cancellation is a pure performance choice: committed event
sequences must be bit-identical to the aggressive baseline on the golden
seeds, including with messages held in flight by a fault-wrapped
transport, under a :class:`~repro.faults.FaultPlan` with model faults,
and across a checkpoint resume.  Comparison uses
:meth:`~repro.core.trace.Tracer.committed_sequence` (key-sorted;
cross-KP commit *firing* order is not contractual).

(The pending queue has one implementation, pinned by
``test_core_queue.py`` and ``test_queue_lazy_accounting.py``; the twin
harness that compared a second structure with it went with that
structure.)
"""

import shutil

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.trace import Tracer
from repro.faults import EngineFaults, FaultPlan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import transport_faults

GOLDEN_SEEDS = (0x5EED, 7)

_PHOLD = PholdConfig(n_lps=36, jobs_per_lp=3, lookahead=0.05, remote_fraction=0.7)
_PHOLD_END = 15.0

_HP_CFG = HotPotatoConfig(n=8, duration=15.0, injector_fraction=1.0)
_HP_SEED = 0x5EED


def _phold_run(seed, faults=None, **overrides):
    ecfg = EngineConfig(
        end_time=_PHOLD_END, n_pes=4, n_kps=16, batch_size=16, seed=seed,
        **overrides,
    )
    tracer = Tracer()
    result = run_optimistic(PholdModel(_PHOLD), ecfg, tracer=tracer, faults=faults)
    return tracer.committed_sequence(), dict(result.model_stats)


_PHOLD_BASELINE = {}


def _phold_baseline(seed):
    if seed not in _PHOLD_BASELINE:
        _PHOLD_BASELINE[seed] = _phold_run(seed)
    return _PHOLD_BASELINE[seed]


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("held", [False, True], ids=["lazy", "lazy-held"])
def test_phold_committed_sequence_matches_baseline(seed, held):
    # ``lazy-held``: a fault-wrapped transport holds cross-PE messages
    # over rounds, so anti-messages chase positives still in flight.
    base_seq, base_stats = _phold_baseline(seed)
    assert base_seq, "baseline committed nothing — scenario is vacuous"
    seq, stats = _phold_run(
        seed, faults=transport_faults() if held else None, cancellation="lazy"
    )
    assert seq == base_seq
    assert stats == base_stats


def _hotpotato_run(plan=None, engine_plan=None, **overrides):
    ecfg = EngineConfig(
        end_time=_HP_CFG.duration, n_pes=4, n_kps=16, batch_size=16,
        seed=_HP_SEED, **overrides,
    )
    tracer = Tracer()
    model = HotPotatoModel(_HP_CFG, fault_plan=plan)
    faults = EngineFaults(engine_plan) if engine_plan is not None else None
    result = run_optimistic(model, ecfg, tracer=tracer, faults=faults)
    return tracer.committed_sequence(), dict(result.model_stats), result


def test_fault_plan_identity_lazy():
    """Model faults + transport chaos: the lazy engine commits the exact
    sequence the aggressive engine does."""
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    model_plan = generate_plan(
        TorusTopology(_HP_CFG.n),
        duration=_HP_CFG.duration,
        link_fail_rate=0.1,
        heal_after=8,
        seed=0xD00D,
    )
    transport_plan = FaultPlan(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )
    base_seq, base_stats, _ = _hotpotato_run(plan=model_plan, engine_plan=transport_plan)
    seq, stats, result = _hotpotato_run(
        plan=model_plan, engine_plan=transport_plan, cancellation="lazy",
    )
    assert seq == base_seq
    assert stats == base_stats
    # The scenario actually exercised both fault classes.
    assert stats["fault_events"] > 0
    run = result.run
    assert run.transport_dropped + run.transport_duplicated + run.transport_delayed > 0


def test_checkpoint_resume_identity_lazy(tmp_path):
    """Interrupt a lazy-cancellation run at a mid-run snapshot and
    resume: the completed run matches the aggressive oracle that never
    checkpointed — under a non-empty FaultPlan."""
    plan_kwargs = dict(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )
    duration = 12.0
    cfg = HotPotatoConfig(n=4, duration=duration, injector_fraction=1.0)

    def make(**overrides):
        ecfg = EngineConfig(
            end_time=duration, n_pes=4, n_kps=16, batch_size=16, seed=7,
            **overrides,
        )
        kernel = TimeWarpKernel(HotPotatoModel(cfg), ecfg)
        kernel.attach_faults(EngineFaults(FaultPlan(**plan_kwargs)))
        return kernel

    oracle = make().run()  # aggressive, no checkpointer

    fast = dict(cancellation="lazy")
    snap_dir = tmp_path / "snaps"
    marker = {"case": "prop-resume"}
    ckpt = Checkpointer(snap_dir, every=2, marker=marker)
    recorded = make(**fast).attach_checkpointer(ckpt).run()
    assert recorded.model_stats == oracle.model_stats

    snaps = list_snapshots(snap_dir)
    assert len(snaps) > 2, "cadence produced no mid-run snapshots"
    for snap in (snaps[0], snaps[len(snaps) // 2]):
        d = tmp_path / f"resume_{snap.stem}"
        d.mkdir()
        shutil.copy(snap, d / snap.name)
        ck = Checkpointer(d, every=1 << 30, marker=marker)
        ck.load_latest()
        resumed = make(**fast).attach_checkpointer(ck).run()
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the aggressive oracle"
        )
