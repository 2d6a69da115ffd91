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

from repro.experiments.common import SweepParams, kp_count_for, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]

MAPPINGS = ("block", "striped", "random")


def run(params: SweepParams) -> Table:
    """Compare mapping strategies at 4 PEs across the size sweep."""
    table = Table(
        title="ABL-MAP — LP/KP/PE mapping locality (4 PEs)",
        columns=[
            "N",
            "mapping",
            "remote sends",
            "remote %",
            "stragglers",
            "rolled back",
            "event rate",
        ],
    )
    for n in params.sizes:
        scenario = report_scenario(n, params.duration, seed=params.seed)
        n_kps = kp_count_for(n, 16, 4)
        remote_by_mapping: dict[str, int] = {}
        for mapping in MAPPINGS:
            rs = run_point(
                "opt",
                scenario,
                n_pes=4,
                n_kps=n_kps,
                mapping=mapping,
                **params.optimism(),
            )["run"]
            sends = rs.local_sends + rs.remote_sends
            table.add_row(
                n,
                mapping,
                rs.remote_sends,
                100.0 * rs.remote_sends / sends if sends else 0.0,
                rs.stragglers,
                rs.events_rolled_back,
                rs.event_rate,
            )
            remote_by_mapping[mapping] = rs.remote_sends
        if remote_by_mapping.get("block", 0) and remote_by_mapping.get("random", 0):
            table.notes.append(
                f"N={n}: random mapping sends "
                f"{remote_by_mapping['random'] / remote_by_mapping['block']:.1f}x "
                f"more cross-PE messages than block mapping"
            )
    return table
