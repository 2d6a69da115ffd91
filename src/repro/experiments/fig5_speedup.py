"""Figure 5: parallel speed-up — event rate vs N for 1, 2 and 4 PEs.

"The graph shows that for 1024 LPs (N = 32), the 4-Processor simulation is
almost four times as fast as the sequential (1-Processor) simulation.
However, for larger networks, the 4-Processor simulation is approximately
twice as fast." (§4.2.2)

The 1-processor line is the sequential engine; the 2/4-processor lines are
the Time Warp engine with the report's 64-KP default (rounded down to what
tiles the grid).  Event rates come from the calibrated cost model over
*measured* event counts — see DESIGN.md, "Hardware substitutions".  Fig 6
reads the same points.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table"]

#: Injection load used for the speed-up sweeps (the report keeps the
#: network "relatively full").
SPEEDUP_LOAD = 1.0
#: The report's KP default (§4.2.3).
DEFAULT_KPS = 64


def points(params: SweepParams) -> dict:
    """One point per (N, n_pes); n_pes == 1 is sequential."""
    specs = {}
    for n in params.sizes:
        scenario = params.scenario(n, injector_fraction=SPEEDUP_LOAD)
        for n_pes in params.pe_counts:
            if n_pes == 1:
                specs[n, n_pes] = point_spec("seq", scenario)
            else:
                specs[n, n_pes] = point_spec(
                    "opt", scenario, n_pes=n_pes,
                    n_kps=kp_count_for(n, DEFAULT_KPS, n_pes), **params.optimism(),
                )
    return specs


def table(params: SweepParams, results: dict) -> Table:
    """The Fig 5 series (event rate in events/second)."""
    table = Table(
        title="Figure 5 — parallel speed-up: event rate (events/s) vs N",
        columns=["N", "LPs"] + [f"{p} PE" for p in params.pe_counts],
    )
    for n in params.sizes:
        table.add_row(
            n, n * n, *(results[n, p]["run"].event_rate for p in params.pe_counts)
        )
    table.notes.append(
        "rates are virtual wall-clock (calibrated cost model over measured "
        "event counts); shapes, not absolute values, are the claim"
    )
    return table
