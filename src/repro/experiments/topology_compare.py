"""TOPO — torus vs mesh: the theory's network vs the simulation's.

"The network topology used in the theoretical algorithm analysis is the
more straightforward mesh topology ... The simulation uses the torus
network because it is a more practical implementation of essentially the
same topology.  It is more practical because the maximum distance between
any two nodes is N-1 rather than 2N-1 for the mesh" (§1.1).

This experiment runs the identical workload on both and quantifies that
choice: the torus should deliver in roughly half the time (its diameter is
about half) and deflect less at the mesh's starved corners.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, point_spec
from repro.experiments.report import Table
from repro.net import TOPOLOGIES

__all__ = ["points", "table"]


def points(params: SweepParams) -> dict:
    """One sequential point per (N, topology) at full load."""
    return {
        (n, name): point_spec("seq", params.scenario(n, topology=name))
        for n in params.sizes
        for name in ("torus", "mesh")
    }


def table(params: SweepParams, results: dict) -> Table:
    """Torus and mesh compared per sweep size at full load."""
    table = Table(
        title="TOPO — torus vs mesh (100% injectors)",
        columns=["N", "topology", "diameter", "delivered", "avg delivery",
                 "avg distance", "deflect %"],
    )
    for (n, name), point in results.items():
        ms = point["model_stats"]
        table.add_row(
            n, name, TOPOLOGIES[name](n).diameter(), ms["delivered"],
            ms["avg_delivery_time"], ms["avg_distance"],
            100 * ms["deflection_rate"],
        )
    for n in params.sizes:
        torus_avg, mesh_avg = (
            results[n, name]["model_stats"]["avg_delivery_time"]
            for name in ("torus", "mesh")
        )
        if torus_avg > 0:
            table.notes.append(
                f"N={n}: mesh delivery takes {mesh_avg / torus_avg:.2f}x the "
                f"torus time (diameter ratio ≈ 2, §1.1)"
            )
    return table
