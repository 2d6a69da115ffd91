"""Event pooling: every engine recycles events through one free list.

The pool recycles committed events back through fossil collection, so a
pooled run constructs few Event objects in steady state.  It is always
on; that the committed results are the oracle's with it is pinned here
for the optimistic engine and, on every engine, by the golden matrix.
"""

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

SEED = 20010704


def _cfg():
    return HotPotatoConfig(n=4, duration=25.0, injector_fraction=1.0)


def test_pool_counters_reported_and_meaningful():
    cfg = _cfg()
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=8, batch_size=16, seed=SEED
    )
    run = run_optimistic(HotPotatoModel(cfg), ecfg).run
    # Fossil collection refills the free list, so a steady-state run
    # mostly recycles.
    assert run.pool_hits > 0
    assert run.pool_allocs > 0
    assert 0.5 < run.pool_hit_rate < 1.0


def test_optimistic_matches_sequential_with_pooling_default():
    # The repo's determinism oracle, with the pooled fast path active.
    cfg = _cfg()
    seq = run_sequential(HotPotatoModel(cfg), cfg.duration, seed=SEED)
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=8, batch_size=16, seed=SEED
    )
    opt = run_optimistic(HotPotatoModel(cfg), ecfg)
    assert opt.model_stats == seq.model_stats
