"""STATIC — the one-shot (static) analysis of Das et al. [2].

"In a static analysis, all packets are assumed to be injected into the
network simultaneously when the analysis is initialized" (§1.2.1).  The
report supports this mode by initialising the network full and setting
``probability_i`` to zero (§3.3.1).  This experiment drains a full network
of each size and reports how long delivery takes — the static counterpart
to Fig 3 — for both the Busch algorithm and the plain greedy baseline.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]

#: Drain headroom: a full torus empties within a few diameters.
DRAIN_FACTOR = 30.0


def run(params: SweepParams) -> Table:
    """Static (one-shot) drain of a full network per size and algorithm."""
    table = Table(
        title="STATIC — one-shot analysis: drain a full network (0% injectors)",
        columns=["N", "algorithm", "seeded", "delivered", "drained", "avg delivery", "max delivery"],
    )
    for n in params.sizes:
        for policy in ("busch", "greedy"):
            ms = run_point("seq", report_scenario(
                n,
                max(DRAIN_FACTOR * n, 100.0),
                injector_fraction=0.0,
                policy=policy,
                overrides={"initial_fill": 1.0},
                seed=params.seed,
            ))["model_stats"]
            table.add_row(
                n,
                policy,
                ms["initial_packets"],
                ms["delivered"],
                ms["initial_packets"] + ms["injected"] == ms["delivered"],
                ms["avg_delivery_time"],
                ms["max_delivery_time"],
            )
    table.notes.append(
        "static workload: every packet present at t=0 (4 per router), no "
        "further injection — the Das et al. [2] configuration"
    )
    return table
