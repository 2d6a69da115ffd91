"""ABL-ADAPT: fixed vs adaptive optimism.

A fixed optimism budget wastes work whenever the workload's rollback
propensity varies — most visibly under a locality-hostile (random) LP
mapping.  The adaptive throttle (:mod:`repro.core.throttle`) scales the
budget with the measured rollback fraction.  This ablation compares the
two on the same workload and the same hostile mapping.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]

#: Generous fixed budget the throttle gets to regulate.
BATCH_CEILING = 512


def run(params: SweepParams) -> Table:
    """Compare fixed vs adaptive optimism at 4 PEs on a random mapping."""
    table = Table(
        title="ABL-ADAPT — fixed vs adaptive optimism (4 PEs, random mapping)",
        columns=[
            "N",
            "optimism",
            "committed",
            "rolled back",
            "wasted %",
            "final factor",
            "event rate",
        ],
    )
    rolled: dict[int, dict[bool, int]] = {}
    for n in params.sizes:
        scenario = report_scenario(n, params.duration, seed=params.seed)
        n_kps = kp_count_for(n, 16, 4)
        for adaptive in (False, True):
            rs = run_point(
                "opt",
                scenario,
                n_pes=4,
                n_kps=n_kps,
                batch_size=BATCH_CEILING,
                mapping="random",
                adaptive=adaptive,
            )["run"]
            table.add_row(
                n,
                "adaptive" if adaptive else "fixed",
                rs.committed,
                rs.events_rolled_back,
                100.0 * (1.0 - rs.efficiency_ratio),
                rs.throttle_final_factor,
                rs.event_rate,
            )
            rolled.setdefault(n, {})[adaptive] = rs.events_rolled_back
    for n, modes in rolled.items():
        if modes.get(False):
            saved = modes[False] - modes.get(True, 0)
            table.notes.append(
                f"N={n}: the throttle avoids {saved} rolled-back events "
                f"({100 * saved / modes[False]:.0f}% of the fixed-budget waste)"
            )
    return table
