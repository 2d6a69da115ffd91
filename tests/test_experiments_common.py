"""Unit tests for the experiment plumbing (SweepParams, run_point)."""

import pytest

from repro.experiments.common import DEFAULT_LOADS, SweepParams, run_point
from repro.scenarios import report_scenario


def _scenario(seed: int):
    return report_scenario(4, 15.0, seed=seed)


def test_default_loads_are_the_reports():
    assert DEFAULT_LOADS == (0.25, 0.50, 0.75, 1.00)


def test_sweep_params_defaults():
    p = SweepParams()
    assert p.sizes == (8, 16)
    assert p.duration == 100.0
    assert p.pe_counts == (1, 2, 4)
    assert p.window == 2.0


def test_sweep_params_requires_sizes():
    with pytest.raises(ValueError):
        SweepParams(sizes=())


def test_sequential_helper_runs():
    point = run_point("seq", _scenario(1))
    assert point["run"].engine == "sequential"
    assert point["model_stats"]["delivered"] > 0
    assert set(point) == {"model_stats", "run"}


def test_parallel_helper_batch_mode():
    point = run_point("opt", _scenario(1), n_pes=2, n_kps=4, batch_size=16)
    assert point["run"].engine == "optimistic"
    assert point["run"].n_pes == 2


def test_parallel_helper_window_mode_raises_batch_cap():
    params = SweepParams(batch_size=16)
    assert params.optimism() == {"batch_size": 1 << 20, "window": params.window}
    point = run_point("opt", _scenario(1), n_pes=2, n_kps=4, **params.optimism())
    # Window mode runs fine and produces Time Warp activity on 2 PEs.
    assert point["run"].committed > 0


def test_parallel_helper_forwards_overrides():
    point = run_point(
        "opt", _scenario(1), n_pes=2, n_kps=4, rollback="copy", mapping="striped"
    )
    assert point["run"].committed > 0


def test_helpers_share_results_given_same_seed():
    a = run_point("seq", _scenario(7))
    b = run_point("opt", _scenario(7), n_pes=4, n_kps=8, mapping="striped")
    c = run_point("cons", _scenario(7), n_pes=4)
    assert a["model_stats"] == b["model_stats"] == c["model_stats"]
    assert c["run"].engine == "conservative"


def test_run_point_returns_a_declared_delivery_log():
    scenario = report_scenario(4, 15.0, overrides={"delivery_log": True}, seed=7)
    point = run_point("seq", scenario)
    log = point["delivery_log"]
    assert len(log) == point["model_stats"]["delivered"]
    assert point["model_stats"] == run_point("seq", _scenario(7))["model_stats"]
