"""ABL-ADAPT: fixed vs adaptive optimism.

A fixed optimism budget wastes work whenever the workload's rollback
propensity varies — most visibly under a locality-hostile (random) LP
mapping.  The adaptive throttle (:mod:`repro.core.throttle`) scales the
budget with the measured rollback fraction.  This ablation compares the
two on the same workload and the same hostile mapping.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table"]

#: Generous fixed budget the throttle gets to regulate.
BATCH_CEILING = 512


def points(params: SweepParams) -> dict:
    """One point per (N, adaptive) at 4 PEs on a random mapping."""
    return {
        (n, adaptive): point_spec(
            "opt", params.scenario(n),
            n_pes=4, n_kps=kp_count_for(n, 16, 4), batch_size=BATCH_CEILING,
            mapping="random", adaptive=adaptive,
        )
        for n in params.sizes
        for adaptive in (False, True)
    }


def table(params: SweepParams, results: dict) -> Table:
    """Fixed vs adaptive optimism at 4 PEs on a random mapping."""
    table = Table(
        title="ABL-ADAPT — fixed vs adaptive optimism (4 PEs, random mapping)",
        columns=["N", "optimism", "committed", "rolled back", "wasted %",
                 "final factor", "event rate"],
    )
    for n in params.sizes:
        fixed, adaptive = (results[n, a]["run"] for a in (False, True))
        for name, rs in (("fixed", fixed), ("adaptive", adaptive)):
            table.add_row(
                n, name, rs.committed, rs.events_rolled_back,
                100.0 * (1.0 - rs.efficiency_ratio), rs.throttle_final_factor,
                rs.event_rate,
            )
        if fixed.events_rolled_back:
            saved = fixed.events_rolled_back - adaptive.events_rolled_back
            table.notes.append(
                f"N={n}: the throttle avoids {saved} rolled-back events "
                f"({100 * saved / fixed.events_rolled_back:.0f}% of the "
                "fixed-budget waste)"
            )
    return table
