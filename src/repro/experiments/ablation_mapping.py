"""ABL-MAP: LP→KP→PE mapping locality.

"If the LPs within a given KP are randomly assigned, then when a packet is
routed to an adjacent LP that LP is likely to be in another KP and quite
possibly another PE.  Therefore, it is beneficial to assign adjacent LPs
to the same KP and adjacent KPs to the same PE." (§3.2.3)

This ablation measures the claim directly: remote (cross-PE) messages,
stragglers, rolled-back events and the event rate under the block, striped
and random mappings on an identical workload.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table"]

MAPPINGS = ("block", "striped", "random")


def points(params: SweepParams) -> dict:
    """One point per (N, mapping) at 4 PEs."""
    return {
        (n, mapping): point_spec(
            "opt", params.scenario(n),
            n_pes=4, n_kps=kp_count_for(n, 16, 4), mapping=mapping,
            **params.optimism(),
        )
        for n in params.sizes
        for mapping in MAPPINGS
    }


def table(params: SweepParams, results: dict) -> Table:
    """Mapping strategies compared at 4 PEs across the size sweep."""
    table = Table(
        title="ABL-MAP — LP/KP/PE mapping locality (4 PEs)",
        columns=["N", "mapping", "remote sends", "remote %", "stragglers",
                 "rolled back", "event rate"],
    )
    for n in params.sizes:
        remote_by_mapping: dict[str, int] = {}
        for mapping in MAPPINGS:
            rs = results[n, mapping]["run"]
            sends = rs.local_sends + rs.remote_sends
            table.add_row(
                n, mapping, rs.remote_sends,
                100.0 * rs.remote_sends / sends if sends else 0.0,
                rs.stragglers, rs.events_rolled_back, rs.event_rate,
            )
            remote_by_mapping[mapping] = rs.remote_sends
        if remote_by_mapping["block"] and remote_by_mapping["random"]:
            table.notes.append(
                f"N={n}: random mapping sends "
                f"{remote_by_mapping['random'] / remote_by_mapping['block']:.1f}x "
                f"more cross-PE messages than block mapping"
            )
    return table
