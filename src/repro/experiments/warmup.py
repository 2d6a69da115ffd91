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
from repro.experiments.common import SweepParams, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table"]


def points(params: SweepParams) -> dict:
    """One sequential point with a delivery log per size."""
    return {
        n: point_spec("seq", params.scenario(n, overrides={"delivery_log": True}))
        for n in params.sizes
    }


def table(params: SweepParams, results: dict) -> Table:
    """Warm-up and steady-state delivery time per sweep size."""
    table = Table(
        title="WARMUP — whole-run vs steady-state average delivery time",
        columns=["N", "warmup ends (step)", "whole-run avg", "steady-state avg",
                 "bias %"],
    )
    for n in params.sizes:
        point = results[n]
        whole = point["model_stats"]["avg_delivery_time"]
        log = point["delivery_log"]
        series = build_series(log)
        w = warmup_end(series, window=5, tolerance=0.5)
        if w is None:
            table.add_row(n, "-", whole, "-", "-")
            continue
        steady = [dt for step, dt in log if step >= w]
        steady_avg = sum(steady) / len(steady) if steady else 0.0
        bias = 100.0 * (whole - steady_avg) / steady_avg if steady_avg else 0.0
        table.add_row(n, w, whole, steady_avg, bias)
    table.notes.append(
        "warm-up detected from per-step delivery throughput settling within "
        "50% of its steady value (rolling 5-step window)"
    )
    return table
