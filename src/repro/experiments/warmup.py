"""WARMUP — measurement methodology: whole-run vs steady-state averages.

The report's statistics average over the entire run, which folds the
initial transient (the full network fill draining toward its equilibrium
mix of priorities and occupancy) into every number.  Using the commit-time
delivery log and :mod:`repro.analysis.timeseries`, this experiment
estimates where the warm-up ends and re-computes the average delivery time
from steady state only, quantifying how much the transient biases the
headline Fig-3 numbers.
"""

from __future__ import annotations

from repro.analysis.timeseries import build_series, warmup_end
from repro.experiments.common import SweepParams, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]


def run(params: SweepParams) -> Table:
    """Estimate warm-up and steady-state delivery time per sweep size."""
    table = Table(
        title="WARMUP — whole-run vs steady-state average delivery time",
        columns=[
            "N",
            "warmup ends (step)",
            "whole-run avg",
            "steady-state avg",
            "bias %",
        ],
    )
    for n in params.sizes:
        point = run_point("seq", report_scenario(
            n, params.duration, overrides={"delivery_log": True}, seed=params.seed
        ))
        whole = point["model_stats"]["avg_delivery_time"]
        log = point["delivery_log"]
        series = build_series(log)
        w = warmup_end(series, window=5, tolerance=0.5)
        if w is None:
            table.add_row(n, "-", whole, "-", "-")
            continue
        steady = [
            (step, dt) for step, dt in log if step >= w
        ]
        steady_avg = (
            sum(dt for _, dt in steady) / len(steady) if steady else 0.0
        )
        bias = 100.0 * (whole - steady_avg) / steady_avg if steady_avg else 0.0
        table.add_row(n, w, whole, steady_avg, bias)
    table.notes.append(
        "warm-up detected from per-step delivery throughput settling within "
        "50% of its steady value (rolling 5-step window)"
    )
    return table
