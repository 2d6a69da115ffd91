"""Figures 7a–c: total events rolled back vs the number of KPs.

"The number of rollbacks in the simulation of a small network is
significantly affected by the number of KPs.  However, as the simulation
becomes larger, the effect is lessened." (§4.2.3)

Unlike the event-rate figures, every number here is *measured* — the
rollback counts come from real Time Warp rollbacks in the kernel, not from
the cost model.  The report presents the same data at three scales
(7a/7b/7c); one table covers all of it, with the false-rollback share in
the notes since false rollbacks are the quantity KPs exist to contain.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run", "collect_rollbacks", "FIG7_PES"]

#: The report runs its KP sweep on the quad-processor configuration.
FIG7_PES = 4


def collect_rollbacks(params: SweepParams) -> dict[tuple[int, int], dict]:
    """(N, n_kps) → run stats dict, for the KP sweep."""
    out: dict[tuple[int, int], dict] = {}
    for n in params.sizes:
        scenario = report_scenario(n, params.duration, seed=params.seed)
        for kps in params.kp_counts:
            usable = kp_count_for(n, kps, FIG7_PES)
            if (n, usable) in out:
                continue  # several requested counts rounded to the same one
            point = run_point(
                "opt", scenario, n_pes=FIG7_PES, n_kps=usable, **params.optimism()
            )
            out[(n, usable)] = point["run"].as_dict()
    return out


def run(params: SweepParams) -> Table:
    """Regenerate the Fig 7 data (total events rolled back)."""
    stats = collect_rollbacks(params)
    kp_values = sorted({k for (_, k) in stats})
    table = Table(
        title="Figures 7a-c — total events rolled back vs number of KPs "
        f"({FIG7_PES} PEs)",
        columns=["N"] + [f"{k} KPs" for k in kp_values],
    )
    for n in params.sizes:
        row: list[object] = [n]
        for k in kp_values:
            cell = stats.get((n, k))
            row.append(cell["events_rolled_back"] if cell else "-")
        table.add_row(*row)
    for n in params.sizes:
        pairs = sorted((k, s) for (nn, k), s in stats.items() if nn == n)
        if len(pairs) >= 2:
            first, last = pairs[0], pairs[-1]
            table.notes.append(
                f"N={n}: {first[0]} KPs → {first[1]['events_rolled_back']} rolled back "
                f"({first[1]['false_rollback_events']} false); "
                f"{last[0]} KPs → {last[1]['events_rolled_back']} "
                f"({last[1]['false_rollback_events']} false)"
            )
    return table
