"""Property-based engine-equivalence: the crown invariant (DESIGN.md 2).

Hypothesis drives the optimistic engine through random configurations
(PEs, KPs, batch sizes, windows, mappings, strategies, with and without
a fault-wrapped transport holding messages in flight) and the committed
results must always equal the sequential oracle's — on both the
PHOLD and the hot-potato workloads.
"""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.engine import SequentialEngine, run_sequential
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.trace import Tracer
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import ARRIVE, INIT, INJECT, ROUTE
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import plan_spy, transport_faults

END = 20.0
PHOLD_CFG = PholdConfig(n_lps=24, jobs_per_lp=2, remote_fraction=0.6)
HP_CFG = HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)


@pytest.fixture(scope="module")
def phold_oracle():
    return run_sequential(PholdModel(PHOLD_CFG), END).model_stats


@pytest.fixture(scope="module")
def hp_oracle():
    return run_sequential(HotPotatoModel(HP_CFG), END).model_stats


@st.composite
def engine_configs(draw):
    n_pes = draw(st.integers(min_value=1, max_value=6))
    # Keep n_kps a multiple of n_pes and within the LP population.
    kp_mult = draw(st.integers(min_value=1, max_value=max(1, 16 // n_pes)))
    n_kps = n_pes * kp_mult
    use_window = draw(st.booleans())
    # Transport faults only: the generic _emit/_receive path, untraced,
    # with cross-PE messages arriving rounds late.
    held = draw(st.booleans())
    return held, EngineConfig(
        end_time=END,
        n_pes=n_pes,
        n_kps=n_kps,
        batch_size=draw(st.integers(min_value=1, max_value=512)),
        window=draw(st.sampled_from([0.3, 1.0, 4.0])) if use_window else None,
        gvt_interval=draw(st.integers(min_value=1, max_value=5)),
        mapping=draw(st.sampled_from(["striped", "random"])),
        rollback=draw(st.sampled_from(["reverse", "copy"])),
        seed=0x5EED,
    )


@given(cfg=engine_configs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_phold_matches_oracle_under_any_configuration(cfg, phold_oracle):
    held, cfg = cfg
    result = run_optimistic(
        PholdModel(PHOLD_CFG), cfg, faults=transport_faults() if held else None
    )
    assert result.model_stats == phold_oracle
    assert result.run.committed == result.run.processed - result.run.events_rolled_back


@given(cfg=engine_configs())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hotpotato_matches_oracle_under_any_configuration(cfg, hp_oracle):
    held, cfg = cfg
    result = run_optimistic(
        HotPotatoModel(HP_CFG), cfg, faults=transport_faults() if held else None
    )
    assert result.model_stats == hp_oracle


# ----------------------------------------------------------------------
# The fused closures share one set of per-LP dispatch tables per kernel
# (docs/KERNEL.md): those tables must be the live ``pe.pending`` /
# ``kp.processed`` objects through rollbacks, fossil collection and a
# checkpoint restore.  An 8x8 torus with a large batch rolls back for real.
# ----------------------------------------------------------------------
SHARED_END = 10.0
SHARED_CFG = HotPotatoConfig(
    n=8, duration=SHARED_END, injector_fraction=1.0, delivery_log=True
)


def _shared_tables_engine(executor="vectorized"):
    """The oracle (``scalar``) or an 8x8 Time Warp kernel (``vectorized``)."""
    model = HotPotatoModel(SHARED_CFG)
    if executor == "scalar":
        return model, SequentialEngine(model, SHARED_END, seed=0x5EED)
    cfg = EngineConfig(
        end_time=SHARED_END, n_pes=4, n_kps=16, batch_size=512, seed=0x5EED
    )
    return model, TimeWarpKernel(model, cfg)


@pytest.fixture(scope="module")
def shared_oracle():
    model = HotPotatoModel(SHARED_CFG)
    tracer = Tracer()
    stats = run_sequential(model, SHARED_END, tracer=tracer).model_stats
    return stats, sorted(model.delivery_log), tracer.committed_sequence()


SHARED_EXECUTORS = ("scalar", "vectorized")


@pytest.mark.parametrize(
    "executor",
    SHARED_EXECUTORS,
    # The ids name the pending queue ("heap") and the cancellation mode
    # ("aggressive"), the only ones, as the suite has always printed them.
    ids=[f"heap-aggressive-{executor}" for executor in SHARED_EXECUTORS],
)
def test_shared_dispatch_tables_commit_the_oracle_sequence(shared_oracle, executor):
    stats, deliveries, sequence = shared_oracle
    # Untraced: every fused closure (send, batch, handler table) runs on
    # Time Warp; the oracle runs its band program, whose INIT band calls
    # the table's ``init``.
    model, kernel = _shared_tables_engine(executor)
    calls = plan_spy(model, (INIT, ARRIVE, ROUTE, INJECT))
    result = kernel.run()
    assert sum(calls) > 0
    if executor == "vectorized":
        assert kernel._batch_by_pe is not None
        assert result.run.events_rolled_back > 0
    assert result.model_stats == stats
    assert sorted(model.delivery_log) == deliveries
    assert result.run.committed == len(sequence)
    # Traced: the same closures, with the tracer's per-event hook.
    tracer = Tracer()
    _, kernel = _shared_tables_engine(executor)
    kernel.attach_tracer(tracer).run()
    assert tracer.committed_sequence() == sequence


def test_shared_dispatch_tables_survive_kill_and_resume(shared_oracle, tmp_path):
    stats, deliveries, sequence = shared_oracle
    _, kernel = _shared_tables_engine()
    kernel.attach_checkpointer(Checkpointer(tmp_path / "snaps", every=1)).run()
    snaps = list_snapshots(tmp_path / "snaps")
    assert len(snaps) > 3
    # "Kill" mid-run: keep only a snapshot from the middle, resume from it.
    resume_dir = tmp_path / "resume"
    resume_dir.mkdir()
    shutil.copy(snaps[len(snaps) // 2], resume_dir)
    ckpt = Checkpointer(resume_dir, every=1 << 30)
    ckpt.load_latest()
    model, kernel = _shared_tables_engine()
    result = kernel.attach_checkpointer(ckpt).run()
    assert result.model_stats == stats
    assert sorted(model.delivery_log) == deliveries
    assert result.run.committed == len(sequence)
