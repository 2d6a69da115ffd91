"""Tests for the Time Warp kernel: rollback mechanics and determinism."""

import gc
import tracemalloc

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SequentialEngine, run_sequential
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import ChattyModel, transport_faults

END = 30.0


def opt(model, faults=None, **kw):
    kw.setdefault("end_time", END)
    kw.setdefault("mapping", "striped")
    return run_optimistic(model, EngineConfig(**kw), faults=faults)


# ----------------------------------------------------------------------
# Straggler / rollback mechanics on the deterministic Chatty model.
# ----------------------------------------------------------------------
def chatty():
    # LP 1 (second PE, scheduled later in the round) pokes LP 0 with a
    # small delay: the poke lands in PE 0's already-processed past.
    return ChattyModel(n_lps=2, pokers={1: 0})


def test_straggler_produces_rollback():
    result = opt(chatty(), n_pes=2, n_kps=2, batch_size=1000)
    assert result.run.stragglers > 0
    assert result.run.events_rolled_back > 0


def test_rollback_preserves_results():
    oracle = run_sequential(chatty(), END)
    result = opt(chatty(), n_pes=2, n_kps=2, batch_size=1000)
    assert result.model_stats == oracle.model_stats
    # Every tick 1..29 per LP, every poke received.
    assert result.model_stats["ticks"] == (29, 29)
    assert result.model_stats["pokes"] == (29, 0)


def test_single_pe_never_rolls_back():
    result = opt(chatty(), n_pes=1, n_kps=1, batch_size=7)
    assert result.run.events_rolled_back == 0
    assert result.run.stragglers == 0


def test_committed_equals_processed_minus_rolled_back():
    result = opt(chatty(), n_pes=2, n_kps=2, batch_size=1000)
    run = result.run
    assert run.committed == run.processed - run.events_rolled_back
    assert run.fossil_collected == run.committed


def test_false_rollbacks_counted_with_shared_kp():
    # 4 LPs, 2 KPs: LP 1 shares KP 0 with the poke target LP 0, so its
    # innocent events get rolled back too.
    model = ChattyModel(n_lps=4, pokers={2: 0})
    shared = opt(model, n_pes=2, n_kps=2, batch_size=1000)
    assert shared.run.false_rollback_events > 0
    # One KP per LP: rollbacks touch only the target LP.
    model = ChattyModel(n_lps=4, pokers={2: 0})
    isolated = opt(model, n_pes=2, n_kps=4, batch_size=1000)
    assert isolated.run.false_rollback_events == 0


def test_more_kps_reduce_rolled_back_events():
    rolled = {}
    for n_kps in (2, 4):
        model = ChattyModel(n_lps=4, pokers={2: 0, 3: 1})
        rolled[n_kps] = opt(
            model, n_pes=2, n_kps=n_kps, batch_size=1000
        ).run.events_rolled_back
    assert rolled[4] <= rolled[2]


def test_cancellations_happen_when_rolled_back_events_sent():
    # The poked LP 0 also pokes LP 1: its rolled-back ticks had sent events
    # that must be cancelled.
    model = ChattyModel(n_lps=2, pokers={1: 0, 0: 1})
    result = opt(model, n_pes=2, n_kps=2, batch_size=1000)
    run = result.run
    assert run.events_rolled_back > 0
    assert run.cancelled_direct + run.cancelled_via_rollback > 0
    oracle = run_sequential(ChattyModel(n_lps=2, pokers={1: 0, 0: 1}), END)
    assert result.model_stats == oracle.model_stats


def test_two_pokers_at_batch_1000_match_oracle():
    # Two pokers on two PEs, one KP per LP: both PEs run far ahead, so
    # stragglers arrive in both directions.
    oracle = run_sequential(ChattyModel(4, pokers={2: 0, 3: 1}), END).model_stats
    result = opt(
        ChattyModel(4, pokers={2: 0, 3: 1}), n_pes=2, n_kps=4, batch_size=1000
    )
    assert result.model_stats == oracle


def test_window_with_copy_rollback_matches_oracle_hotpotato():
    # Virtual-time window, no batch cap, state saving: Time Warp's one
    # batch loop over the handler table on the 4x4 torus, with copy
    # rollback restoring the routers' snapshots.
    cfg = HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(cfg), END).model_stats
    result = opt(
        HotPotatoModel(cfg),
        n_pes=4,
        n_kps=8,
        window=1.0,
        batch_size=1 << 20,
        rollback="copy",
    )
    assert result.model_stats == oracle


# ----------------------------------------------------------------------
# Determinism matrix on PHOLD (DESIGN.md invariant 2).
# ----------------------------------------------------------------------
PHOLD = PholdConfig(n_lps=32, jobs_per_lp=3, remote_fraction=0.7)


@pytest.fixture(scope="module")
def phold_oracle():
    return run_sequential(PholdModel(PHOLD), END).model_stats


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_pes=1, n_kps=1, batch_size=16),
        dict(n_pes=2, n_kps=4, batch_size=4),
        dict(n_pes=4, n_kps=8, batch_size=64),
        dict(n_pes=4, n_kps=16, batch_size=16, rollback="copy"),
        dict(n_pes=4, n_kps=8, batch_size=16, mapping="random"),
        # Untraced generic _emit/_receive path, messages held in flight.
        dict(n_pes=4, n_kps=8, batch_size=16, faults="transport"),
        dict(n_pes=3, n_kps=9, batch_size=5, gvt_interval=3),
        dict(n_pes=4, n_kps=8, window=2.0, batch_size=1 << 20),
        dict(n_pes=2, n_kps=4, window=0.5, batch_size=1 << 20),
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_every_configuration_matches_oracle(phold_oracle, kw):
    kw = dict(kw)
    if kw.pop("faults", None):
        kw["faults"] = transport_faults()
    result = opt(PholdModel(PHOLD), **kw)
    assert result.model_stats == phold_oracle
    run = result.run
    assert run.committed == run.processed - run.events_rolled_back


def test_seed_changes_results():
    a = opt(PholdModel(PHOLD), n_pes=2, n_kps=4, seed=1)
    b = opt(PholdModel(PHOLD), n_pes=2, n_kps=4, seed=2)
    assert a.model_stats != b.model_stats


def test_same_config_repeatable():
    a = opt(PholdModel(PHOLD), n_pes=4, n_kps=8, batch_size=32)
    b = opt(PholdModel(PHOLD), n_pes=4, n_kps=8, batch_size=32)
    assert a.model_stats == b.model_stats
    assert a.run.events_rolled_back == b.run.events_rolled_back


# ----------------------------------------------------------------------
# Construction validation.
# ----------------------------------------------------------------------
def test_empty_model_rejected():
    class Empty(PholdModel):
        def build(self):
            return []

    with pytest.raises(ConfigurationError):
        TimeWarpKernel(Empty(PHOLD), EngineConfig(end_time=1.0))


def test_result_metadata():
    result = opt(PholdModel(PHOLD), n_pes=2, n_kps=4)
    assert result.run.engine == "optimistic"
    assert result.run.n_pes == 2
    assert result.run.n_kps == 4
    assert len(result.run.per_pe_busy_seconds) == 2
    assert result.run.event_rate > 0
    assert len(result.lps) == PHOLD.n_lps


# ----------------------------------------------------------------------
# Set-up scaling: fused-path installation is linear in the LP population.
# ----------------------------------------------------------------------
def _retained_setup_bytes(n: int, executor: str) -> int:
    """Bytes an engine on the n x n torus retains once its dispatch is in:
    the sequential oracle's handler table (``scalar``), or a Time Warp
    kernel's fast paths around it (``vectorized``)."""
    model = HotPotatoModel(HotPotatoConfig(n=n, duration=1.0, injector_fraction=1.0))
    cfg = EngineConfig(end_time=1.0, n_pes=4, n_kps=64)
    gc.collect()
    tracemalloc.start()
    try:
        if executor == "scalar":
            engine = SequentialEngine(model, 1.0)
            table = engine._handler_table()
            assert len(table) == 5
        else:
            kernel = TimeWarpKernel(model, cfg)
            kernel._install_fast_paths()
            assert kernel._batch_by_pe is not None
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("executor", ["scalar", "vectorized"])
def test_fast_path_setup_memory_linear_in_lps(executor):
    # 4x the LPs may retain at most 5x the bytes.  One LP-length table per
    # compiled closure (instead of one per kernel) makes this ratio ~11.
    small = _retained_setup_bytes(16, executor)
    large = _retained_setup_bytes(32, executor)
    assert large <= 5 * small, f"{large / small:.1f}x bytes for 4x the LPs"
