"""Figure 6: efficiency (speed-up per processor) vs network size.

"The simulation for smaller networks is close to linear (1), but the
simulation of larger graphs drops to approximately 0.5." (§4.2.2)

The runs are Fig 5's points; a sweep of both runs each once.
"""

from __future__ import annotations

from repro.analysis.speedup import efficiency
from repro.experiments.common import SweepParams
from repro.experiments.fig5_speedup import points
from repro.experiments.report import Table

__all__ = ["points", "table"]


def table(params: SweepParams, results: dict) -> Table:
    """The Fig 6 series (efficiency = speed-up / #PE)."""
    rates = {key: point["run"].event_rate for key, point in results.items()}
    table = Table(
        title="Figure 6 — efficiency (speed-up / #PE) vs N",
        columns=["N", "LPs"] + [f"{p} PE" for p in params.pe_counts],
    )
    for n in params.sizes:
        seq_rate = rates[(n, 1)]
        table.add_row(
            n,
            n * n,
            *(efficiency(seq_rate, rates[(n, p)], p) for p in params.pe_counts),
        )
    table.notes.append("1.0 is linear speed-up; the 1-PE column is 1 by definition")
    return table
