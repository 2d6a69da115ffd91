"""Figure 4: average wait to inject a packet vs network size.

"The average packet injection waiting time increases approximately
linearly with N within each injection configuration.  However ... the
injection rate has a significant impact on the injection wait." (§4.1)
"""

from __future__ import annotations

from repro.analysis.linfit import fit_linear
from repro.analysis.replication import summarize
from repro.experiments.common import SweepParams, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]


def run(params: SweepParams) -> Table:
    """Regenerate the Fig 4 series at the sweep's sizes and loads."""
    loads = params.loads
    table = Table(
        title="Figure 4 — average wait to inject a packet (steps) vs N",
        columns=["N"] + [f"{int(load * 100)}% injectors" for load in loads],
    )
    series: dict[float, list[float]] = {load: [] for load in loads}
    max_half_width = 0.0
    for n in params.sizes:
        row: list[object] = [n]
        for load in loads:
            est = summarize(
                [
                    run_point("seq", report_scenario(
                        n, params.duration, injector_fraction=load, seed=seed
                    ))["model_stats"]["avg_inject_wait"]
                    for seed in params.seeds()
                ]
            )
            max_half_width = max(max_half_width, est.half_width)
            row.append(est.mean)
            series[load].append(est.mean)
        table.add_row(*row)
    if params.replications > 1:
        table.notes.append(
            f"{params.replications} seeds per point; widest 95% CI "
            f"half-width {max_half_width:.3f} steps"
        )
    if len(params.sizes) >= 2:
        for load in loads:
            fit = fit_linear(params.sizes, series[load])
            table.notes.append(
                f"{int(load * 100)}% load: wait ≈ {fit.slope:.3f}·N + "
                f"{fit.intercept:.2f} (R²={fit.r_squared:.3f})"
            )
        # The report's second observation: load separates the curves.
        lo, hi = min(loads), max(loads)
        if lo != hi:
            table.notes.append(
                f"load effect at N={params.sizes[-1]}: "
                f"{series[hi][-1]:.2f} vs {series[lo][-1]:.2f} steps "
                f"({int(hi * 100)}% vs {int(lo * 100)}% injectors)"
            )
    return table
