"""M/M/1 tandem queue: engine equivalence plus closed-form validation."""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.errors import ConfigurationError
from repro.models.mm1 import MM1Config, MM1Model

END = 4000.0
CFG = MM1Config(stations=1, arrival_rate=0.5, service_rate=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(stations=0),
        dict(arrival_rate=0.0),
        dict(service_rate=-1.0),
        dict(arrival_rate=1.0, service_rate=1.0),  # unstable
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        MM1Config(**kwargs)


def test_theory_properties():
    cfg = MM1Config(arrival_rate=0.5, service_rate=1.0)
    assert cfg.rho == 0.5
    assert cfg.expected_sojourn == pytest.approx(2.0)
    assert cfg.expected_in_system == pytest.approx(1.0)


@pytest.fixture(scope="module")
def long_run():
    return run_sequential(MM1Model(CFG), END, seed=17)


def test_job_conservation(long_run):
    ms = long_run.model_stats
    # Generated jobs are absorbed or still somewhere in the pipeline.
    in_pipeline = sum(dict(s)["depth_now"] for s in ms["per_station"])
    assert 0 <= ms["generated"] - ms["absorbed"] - in_pipeline <= 4
    # (up to a few jobs in transfer flight between LPs)


def test_utilisation_matches_rho(long_run):
    station = dict(long_run.model_stats["per_station"][0])
    utilisation = station["busy_area"] / station["last_change"]
    assert utilisation == pytest.approx(CFG.rho, rel=0.08)


def test_mean_number_in_system_matches_theory(long_run):
    station = dict(long_run.model_stats["per_station"][0])
    L = station["area"] / station["last_change"]
    assert L == pytest.approx(CFG.expected_in_system, rel=0.15)


def test_littles_law(long_run):
    # L = λ_effective · W, with W from per-job sojourn (minus the two
    # fixed transfer hops) and λ from the completion count.
    ms = long_run.model_stats
    station = dict(ms["per_station"][0])
    horizon = station["last_change"]
    L = station["area"] / horizon
    lam_eff = station["completed"] / horizon
    W = ms["mean_total_sojourn"] - 2 * 0.05  # source->queue + queue->sink
    assert L == pytest.approx(lam_eff * W, rel=0.1)


def test_sojourn_matches_theory(long_run):
    W = long_run.model_stats["mean_total_sojourn"] - 2 * 0.05
    assert W == pytest.approx(CFG.expected_sojourn, rel=0.15)


def test_optimistic_matches_sequential():
    # Random mapping scatters the pipeline across PEs so upstream stages
    # run after downstream ones — thousands of genuine rollbacks.
    tandem = MM1Config(stations=3, arrival_rate=0.5, service_rate=1.0)
    oracle = run_sequential(MM1Model(tandem), 500.0, seed=1).model_stats
    cfg = EngineConfig(
        end_time=500.0, n_pes=3, n_kps=3, batch_size=64, mapping="random", seed=1
    )
    result = run_optimistic(MM1Model(tandem), cfg)
    assert result.run.events_rolled_back > 0
    assert result.model_stats == oracle


def test_conservative_matches_sequential():
    oracle = run_sequential(MM1Model(CFG), 500.0, seed=3).model_stats
    cfg = EngineConfig(end_time=500.0, n_pes=3, mapping="striped", seed=3)
    result = run_conservative(MM1Model(CFG), cfg)
    assert result.model_stats == oracle


def test_tandem_stations_all_process():
    cfg = MM1Config(stations=3, arrival_rate=0.4, service_rate=1.0)
    result = run_sequential(MM1Model(cfg), 1000.0, seed=5)
    for station in result.model_stats["per_station"]:
        assert dict(station)["completed"] > 100


def test_higher_load_longer_queues():
    results = {}
    for lam in (0.3, 0.8):
        cfg = MM1Config(arrival_rate=lam, service_rate=1.0)
        r = run_sequential(MM1Model(cfg), 2000.0, seed=9)
        station = dict(r.model_stats["per_station"][0])
        results[lam] = station["area"] / station["last_change"]
    assert results[0.8] > 2 * results[0.3]
