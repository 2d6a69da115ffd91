"""ABL-RC: reverse computation vs state saving.

ROSS's headline design claim (Carothers et al. [3, 4]) is that reverse
computation beats checkpoint-based (GTW-style) state saving because it
moves the cost off the forward path.  Both strategies are implemented in
this kernel; this ablation runs identical workloads under each and
compares forward-path cost, rollback cost and the resulting event rate.
Both must also produce results identical to the oracle — the determinism
tests enforce that separately.

Two workloads bracket the snapshot cost spectrum:

``hotpotato``
    The router LP overrides ``snapshot_state`` with a hand-written cheap
    copy — the model-author fast path.
``phold``
    PHOLD uses the *base-class* ``snapshot_state``, whose flat-container
    fast path shallow-copies scalar-only state instead of deep-copying it
    (see :meth:`repro.core.lp.LogicalProcess.snapshot_state`).  The
    ``wall (s)`` column is what that fast path buys on the forward path.

A hot-potato row's ``wall (s)`` is the wall time the point worker
measured around the point's own run (``-`` for a result a sweep
journaled before points recorded one); a PHOLD row's is timed here.
"""

from __future__ import annotations

import time

from repro.core.config import EngineConfig
from repro.core.optimistic import run_optimistic
from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table
from repro.models.phold import PholdConfig, PholdModel

__all__ = ["points", "table"]

STRATEGIES = ("reverse", "copy")


def _run_phold(n: int, params: SweepParams, strategy: str):
    """One PHOLD run on an n*n LP population at 4 PEs.

    PHOLD is not a hot-potato model, so it has no scenario document and
    runs on the engine directly, outside the sweep points.
    """
    cfg = EngineConfig(
        end_time=params.duration, n_pes=4, n_kps=kp_count_for(n, 16, 4),
        batch_size=params.batch_size, seed=params.seed, rollback=strategy,
    )
    return run_optimistic(PholdModel(PholdConfig(n_lps=n * n)), cfg)


def points(params: SweepParams) -> dict:
    """One hot-potato point per (N, strategy) at 4 PEs."""
    return {
        (n, strategy): point_spec(
            "opt", params.scenario(n),
            n_pes=4, n_kps=kp_count_for(n, 16, 4), rollback=strategy,
            **params.optimism(),
        )
        for n in params.sizes
        for strategy in STRATEGIES
    }


def table(params: SweepParams, results: dict) -> Table:
    """Rollback strategies compared at 4 PEs across the size sweep."""
    table = Table(
        title="ABL-RC — reverse computation vs state saving (4 PEs)",
        columns=["N", "workload", "strategy", "committed", "rolled back",
                 "makespan (s)", "wall (s)", "event rate"],
    )
    pairs: dict[tuple[int, str], dict[str, float]] = {}
    for n in params.sizes:
        for workload in ("hotpotato", "phold"):
            for strategy in STRATEGIES:
                if workload == "hotpotato":
                    point = results[n, strategy]
                    run_stats, wall = point["run"], point.get("wall_s")
                else:
                    wall0 = time.perf_counter()
                    run_stats = _run_phold(n, params, strategy).run
                    wall = time.perf_counter() - wall0
                table.add_row(
                    n, workload, strategy, run_stats.committed,
                    run_stats.events_rolled_back, run_stats.makespan_seconds,
                    "-" if wall is None else round(wall, 4), run_stats.event_rate,
                )
                pairs.setdefault((n, workload), {})[strategy] = run_stats.event_rate
    for (n, workload), rates in pairs.items():
        if "reverse" in rates and "copy" in rates and rates["copy"] > 0:
            table.notes.append(
                f"N={n} {workload}: reverse computation is "
                f"{rates['reverse'] / rates['copy']:.2f}x the state-saving "
                "event rate"
            )
    return table
