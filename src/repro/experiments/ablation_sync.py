"""ABL-SYNC: optimistic (Time Warp) vs conservative synchronization.

The report's choice of an *optimistic* simulator is itself a design
decision; the PDES literature's perennial question is how it compares to
conservative synchronization on the same model.  The hot-potato network has
modest lookahead (0.1 of a time step), which is exactly the regime where
Time Warp is expected to win: conservative engines must creep in lookahead-
sized windows while Time Warp speculates across them and pays only for the
mispredictions.

Measured on identical workloads: committed events (identical by
construction), synchronization overhead (rollbacks and GVT rounds for
Time Warp, barrier rounds for YAWNS) and cost-model event rate.
"""

from __future__ import annotations

from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.experiments.common import (
    SweepParams,
    kp_count_for,
    run_hotpotato_parallel,
)
from repro.experiments.report import Table
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

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
        hcfg = HotPotatoConfig(
            n=n, duration=params.duration, injector_fraction=1.0
        )
        # Time Warp.
        tw = run_hotpotato_parallel(
            n,
            1.0,
            params.duration,
            params.seed,
            n_pes=N_PES,
            n_kps=kp_count_for(n, 16, N_PES),
            batch_size=params.batch_size,
            window=params.window,
        )
        table.add_row(
            n,
            "time-warp",
            tw.run.committed,
            tw.run.events_rolled_back,
            tw.run.gvt_rounds,
            tw.run.event_rate,
        )
        # Conservative: YAWNS barrier windows.
        kernel = ConservativeKernel(
            HotPotatoModel(hcfg),
            ConservativeConfig(
                end_time=params.duration,
                n_pes=N_PES,
                mapping="block",
                seed=params.seed,
            ),
        )
        cons = kernel.run()
        table.add_row(
            n,
            "conservative/yawns",
            cons.run.committed,
            0,
            kernel.rounds,
            cons.run.event_rate,
        )
        if cons.run.event_rate > 0:
            table.notes.append(
                f"N={n}: Time Warp runs at "
                f"{tw.run.event_rate / cons.run.event_rate:.2f}x the YAWNS "
                "rate (lookahead 0.1 steps)"
            )
    table.notes.append(
        "the comparison is density-sensitive: small networks starve the "
        "conservative lookahead windows (Time Warp wins); dense ones keep "
        "them full (YAWNS becomes competitive)"
    )
    return table
