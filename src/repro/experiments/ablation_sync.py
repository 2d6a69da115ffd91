"""ABL-SYNC: optimistic (Time Warp) vs conservative synchronization.

The report's choice of an *optimistic* simulator is itself a design
decision; the PDES literature's perennial question is how it compares to
conservative synchronization on the same model.  The hot-potato network has
modest lookahead (0.1 of a time step), which is exactly the regime where
Time Warp is expected to win: conservative engines must creep in lookahead-
sized windows while Time Warp speculates across them and pays only for the
mispredictions.

Measured on identical workloads: committed events (identical by
construction), synchronization overhead (rollbacks and GVT rounds; YAWNS
runs Time Warp's round loop at a window of the lookahead, so its rounds
are its barrier windows and one cost statement charges both) and
cost-model event rate.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]

N_PES = 4


def run(params: SweepParams) -> Table:
    """Compare synchronization protocols at 4 PEs across the size sweep."""
    table = Table(
        title=f"ABL-SYNC — Time Warp vs conservative synchronization ({N_PES} PEs)",
        columns=[
            "N",
            "protocol",
            "committed",
            "rolled back",
            "rounds",
            "event rate",
        ],
    )
    for n in params.sizes:
        scenario = report_scenario(n, params.duration, seed=params.seed)
        tw = run_point(
            "opt",
            scenario,
            n_pes=N_PES,
            n_kps=kp_count_for(n, 16, N_PES),
            **params.optimism(),
        )["run"]
        table.add_row(
            n,
            "time-warp",
            tw.committed,
            tw.events_rolled_back,
            tw.gvt_rounds,
            tw.event_rate,
        )
        # Conservative: YAWNS, Time Warp's loop at a lookahead window.
        cons = run_point("cons", scenario, n_pes=N_PES)["run"]
        table.add_row(
            n,
            "conservative/yawns",
            cons.committed,
            cons.events_rolled_back,
            cons.gvt_rounds,
            cons.event_rate,
        )
        if cons.event_rate > 0:
            table.notes.append(
                f"N={n}: Time Warp runs at "
                f"{tw.event_rate / cons.event_rate:.2f}x the YAWNS "
                "rate (lookahead 0.1 steps)"
            )
    table.notes.append(
        "the comparison is density-sensitive: small networks starve the "
        "conservative lookahead windows (Time Warp wins); dense ones keep "
        "them full (YAWNS becomes competitive)"
    )
    return table
