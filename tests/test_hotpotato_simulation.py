"""Tests for the HotPotatoSimulation facade and engine equivalence."""

import gc
import tracemalloc

import pytest

from repro.core.config import EngineConfig
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation

CFG = HotPotatoConfig(n=6, duration=30.0, injector_fraction=1.0)


@pytest.fixture(scope="module")
def oracle():
    return HotPotatoSimulation(CFG).run()


def test_run_produces_stats(oracle):
    assert oracle.run.engine == "sequential"
    assert oracle.model_stats["delivered"] > 0


def test_parallel_matches_oracle(oracle):
    sim = HotPotatoSimulation(CFG)
    par = sim.run_parallel(n_pes=4, n_kps=12, mapping="striped")
    assert par.model_stats == oracle.model_stats


def test_parallel_window_mode_matches_oracle(oracle):
    sim = HotPotatoSimulation(CFG)
    par = sim.run_parallel(
        n_pes=4, n_kps=12, mapping="striped", window=2.0, batch_size=1 << 20
    )
    assert par.run.events_rolled_back > 0  # real Time Warp activity
    assert par.model_stats == oracle.model_stats


def test_engine_config_end_time_is_overridden(oracle):
    sim = HotPotatoSimulation(CFG)
    ecfg = EngineConfig(end_time=999.0, n_pes=2, n_kps=4, mapping="striped")
    par = sim.run_parallel(engine_config=ecfg)
    assert par.model_stats == oracle.model_stats  # ran to CFG.duration


def test_validate_determinism_helper():
    sim = HotPotatoSimulation(HotPotatoConfig(n=4, duration=20.0))
    assert sim.validate_determinism(n_pes=2, n_kps=4)


def test_different_seeds_differ():
    a = HotPotatoSimulation(CFG, seed=1).run()
    b = HotPotatoSimulation(CFG, seed=2).run()
    assert a.model_stats != b.model_stats


def test_mesh_parallel_matches_sequential():
    cfg = HotPotatoConfig(n=6, duration=30.0, injector_fraction=0.5, topology="mesh")
    sim = HotPotatoSimulation(cfg)
    assert sim.run().model_stats == sim.run_parallel(
        n_pes=2, n_kps=6, mapping="striped"
    ).model_stats


def test_proof_mode_parallel_matches_sequential():
    cfg = HotPotatoConfig(
        n=6, duration=30.0, injector_fraction=0.5, absorb_sleeping=False
    )
    sim = HotPotatoSimulation(cfg)
    assert sim.run().model_stats == sim.run_parallel(
        n_pes=4, n_kps=12, mapping="striped"
    ).model_stats


def test_heartbeat_parallel_matches_sequential():
    cfg = HotPotatoConfig(n=4, duration=25.0, injector_fraction=1.0, heartbeat=True)
    sim = HotPotatoSimulation(cfg)
    seq = sim.run()
    par = sim.run_parallel(n_pes=2, n_kps=4, mapping="striped")
    assert seq.model_stats == par.model_stats
    assert seq.model_stats["link_utilization"] > 0


def _held_after_run(duration: float, parallel: bool) -> int:
    """Bytes still allocated once a full-load 16×16 run has finished, with
    its result (which keeps the model and topology alive) in hand."""
    cfg = HotPotatoConfig(n=16, duration=duration, injector_fraction=1.0)
    sim = HotPotatoSimulation(cfg, seed=11)
    gc.collect()
    tracemalloc.start()
    try:
        result = sim.run_parallel(n_pes=4, n_kps=16) if parallel else sim.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.model_stats["delivered"] > 0
    return held


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "optimistic"])
def test_memory_held_does_not_grow_with_duration(parallel):
    # At full load the packet population is constant, so a run four times
    # as long must end holding the same memory.  Per-pair routing state
    # would not: the pairs met keep growing (7 k after 10 steps, 25 k after
    # 40, about 3 MB more); what legitimately differs is ~0.1 MB.
    short = _held_after_run(10.0, parallel)
    long = _held_after_run(40.0, parallel)
    assert long - short < 512 * 1024
