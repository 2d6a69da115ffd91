"""Tests for lazy cancellation (message reuse after rollback)."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import ChattyModel, transport_faults

END = 30.0
PHOLD = PholdConfig(n_lps=48, jobs_per_lp=3, remote_fraction=0.8)


def opt(model, cancellation, faults=None, **kw):
    kw.setdefault("n_pes", 4)
    kw.setdefault("n_kps", 8)
    kw.setdefault("batch_size", 64)
    kw.setdefault("mapping", "striped")
    return run_optimistic(
        model,
        EngineConfig(end_time=END, cancellation=cancellation, **kw),
        faults=faults,
    )


def test_config_validates_cancellation():
    with pytest.raises(ConfigurationError):
        EngineConfig(end_time=1.0, cancellation="eager")


def test_lazy_matches_oracle_phold():
    oracle = run_sequential(PholdModel(PHOLD), END).model_stats
    result = opt(PholdModel(PHOLD), "lazy")
    assert result.model_stats == oracle
    assert result.run.lazy_reused > 0


def test_lazy_matches_oracle_hotpotato():
    cfg = HotPotatoConfig(n=6, duration=END, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(cfg), END).model_stats
    result = opt(HotPotatoModel(cfg), "lazy", n_kps=12)
    assert result.model_stats == oracle


def test_lazy_reduces_cancellations():
    aggressive = opt(PholdModel(PHOLD), "aggressive")
    lazy = opt(PholdModel(PHOLD), "lazy")
    assert aggressive.run.lazy_reused == 0
    a_cancelled = (
        aggressive.run.cancelled_direct + aggressive.run.cancelled_via_rollback
    )
    l_cancelled = lazy.run.cancelled_direct + lazy.run.cancelled_via_rollback
    assert l_cancelled < a_cancelled
    assert lazy.run.lazy_reused > 0


def test_lazy_reduces_secondary_rollbacks():
    # Reused messages spare their (already processed) receivers: fewer
    # events get rolled back in total.
    aggressive = opt(PholdModel(PHOLD), "aggressive")
    lazy = opt(PholdModel(PHOLD), "lazy")
    assert lazy.run.events_rolled_back < aggressive.run.events_rolled_back


def test_lazy_identical_on_deterministic_chatty_model():
    oracle = run_sequential(ChattyModel(4, pokers={2: 0, 3: 1}), END).model_stats
    for canc in ("aggressive", "lazy"):
        result = opt(
            ChattyModel(4, pokers={2: 0, 3: 1}),
            canc,
            n_pes=2,
            n_kps=4,
            batch_size=1000,
        )
        assert result.model_stats == oracle


def test_lazy_with_window_and_copy_strategy():
    cfg = HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(cfg), END).model_stats
    result = opt(
        HotPotatoModel(cfg),
        "lazy",
        n_kps=8,
        window=1.0,
        batch_size=1 << 20,
        rollback="copy",
    )
    assert result.model_stats == oracle


def test_lazy_with_messages_held_in_flight():
    # A fault-wrapped transport: the generic send path, untraced, with
    # positives (and the ghosts of duplicates) arriving rounds late.
    oracle = run_sequential(PholdModel(PHOLD), END).model_stats
    result = opt(PholdModel(PHOLD), "lazy", faults=transport_faults())
    assert result.model_stats == oracle
    assert result.run.transport_delayed > 0 and result.run.lazy_reused > 0


def test_lazy_held_random_mapping_hotpotato_regression():
    # Regression: lazy cancellation exposes downstream LPs to parked
    # (zombie) messages until their sender re-executes, so a router can
    # transiently see more packets than it has links.  The model must ride
    # it out; every overflow is rolled back, committed stats show none,
    # and the final results still match the oracle exactly.
    cfg = HotPotatoConfig(n=4, duration=20.0, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(cfg), 20.0).model_stats
    result = run_optimistic(
        HotPotatoModel(cfg),
        EngineConfig(
            end_time=20.0,
            n_pes=3,
            n_kps=3,
            batch_size=64,
            mapping="random",
            cancellation="lazy",
        ),
        faults=transport_faults(),
    )
    assert result.model_stats == oracle
    assert result.model_stats["overflow_routes"] == 0
    assert oracle["overflow_routes"] == 0


def test_internal_consistency_holds_under_lazy():
    result = opt(PholdModel(PHOLD), "lazy")
    run = result.run
    assert run.committed == run.processed - run.events_rolled_back
