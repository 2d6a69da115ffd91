"""ABL-BASE: the hot-potato algorithm vs baselines (and vs flow control).

Two comparisons in one table:

* deflection baselines (plain greedy, random deflection, cf. Bartzis et
  al. [5]) on the identical bufferless network, and
* the buffered store-and-forward network with end-to-end flow control —
  the configuration the paper's title positions against.  Its link
  utilisation demonstrates the claim that "flow controlled routing results
  in significant under-utilization of network links" (§1.2.3).
"""

from __future__ import annotations

from repro.baselines import BufferedConfig, BufferedModel
from repro.core.engine import run_sequential
from repro.experiments.common import SweepParams, point_spec
from repro.experiments.report import Table

__all__ = ["points", "table"]

#: The deflection algorithms compared, by routing-policy name.
POLICIES = ("busch", "greedy", "random-deflection")


def points(params: SweepParams) -> dict:
    """One sequential point per (N, deflection policy) at full load."""
    return {
        # The heartbeat samples link utilisation.
        (n, policy): point_spec(
            "seq", params.scenario(n, policy=policy, overrides={"heartbeat": True})
        )
        for n in params.sizes
        for policy in POLICIES
    }


def table(params: SweepParams, results: dict) -> Table:
    """Routing algorithms compared on each sweep size at full load."""
    table = Table(
        title="ABL-BASE — routing algorithms compared (100% injectors)",
        columns=["N", "algorithm", "delivered", "avg delivery", "max delivery",
                 "avg inject wait", "link util"],
    )
    for n in params.sizes:
        # The buffered network is not a hot-potato model, so it has no
        # scenario document and runs on the engine directly, outside the
        # sweep points.
        bcfg = BufferedConfig(n=n, duration=params.duration, window=4)
        buffered = run_sequential(BufferedModel(bcfg), bcfg.duration, seed=params.seed)
        rows = [(policy, results[n, policy]["model_stats"]) for policy in POLICIES]
        rows.append(("buffered-flow-control", buffered.model_stats))
        for algorithm, ms in rows:
            table.add_row(
                n, algorithm, ms["delivered"], ms["avg_delivery_time"],
                ms["max_delivery_time"], ms["avg_inject_wait"],
                ms["link_utilization"],
            )
        busch, flow = rows[0][1]["link_utilization"], rows[-1][1]["link_utilization"]
        if flow > 0:
            table.notes.append(
                f"N={n}: hot-potato uses {busch / flow:.1f}x "
                f"the link capacity of the flow-controlled network"
            )
    return table
