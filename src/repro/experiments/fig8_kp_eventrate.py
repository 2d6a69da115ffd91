"""Figure 8: effect of the number of KPs on the event rate.

"It is clear that the performance of the simulation of the smaller (16x16)
network is improved by the use of more KPs.  However, as the network size
becomes larger, this benefit diminishes." (§4.2.3)

More KPs mean fewer false rollbacks (a measured benefit) but more per-round
KP management and fossil-collection bookkeeping (a cost-model overhead) —
the trade-off the report attributes the diminishing returns to.  The runs
are Fig 7's points; a sweep of both runs each once.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams
from repro.experiments.fig7_kp_rollbacks import FIG7_PES, points
from repro.experiments.report import Table

__all__ = ["points", "table"]


def table(params: SweepParams, results: dict) -> Table:
    """The Fig 8 series (event rate vs KP count)."""
    rates = {key: point["run"].event_rate for key, point in results.items()}
    kp_values = sorted({k for (_, k) in rates})
    table = Table(
        title=f"Figure 8 — event rate (events/s) vs number of KPs ({FIG7_PES} PEs)",
        columns=["N"] + [f"{k} KPs" for k in kp_values],
    )
    for n in params.sizes:
        row: list[object] = [n]
        for k in kp_values:
            row.append(rates.get((n, k), "-"))
        table.add_row(*row)
    return table
