"""Figures 7a–c: total events rolled back vs the number of KPs.

"The number of rollbacks in the simulation of a small network is
significantly affected by the number of KPs.  However, as the simulation
becomes larger, the effect is lessened." (§4.2.3)

Unlike the event-rate figures, every number here is *measured* — the
rollback counts come from real Time Warp rollbacks in the kernel, not from
the cost model.  The report presents the same data at three scales
(7a/7b/7c); one table covers all of it, with the false-rollback share in
the notes since false rollbacks are the quantity KPs exist to contain.
Fig 8 reads the same points.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table", "FIG7_PES"]

#: The report runs its KP sweep on the quad-processor configuration.
FIG7_PES = 4


def points(params: SweepParams) -> dict:
    """One Time Warp point per (N, usable KP count): several requested
    counts may round to the same one."""
    specs = {}
    for n in params.sizes:
        scenario = params.scenario(n)
        for kps in params.kp_counts:
            usable = kp_count_for(n, kps, FIG7_PES)
            if (n, usable) not in specs:
                specs[n, usable] = point_spec(
                    "opt", scenario, n_pes=FIG7_PES, n_kps=usable,
                    **params.optimism(),
                )
    return specs


def table(params: SweepParams, results: dict) -> Table:
    """The Fig 7 data (total events rolled back)."""
    stats = {key: point["run"].as_dict() for key, point in results.items()}
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
