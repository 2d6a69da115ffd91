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
from repro.experiments.common import SweepParams, run_point
from repro.experiments.report import Table
from repro.scenarios import report_scenario

__all__ = ["run"]

#: The deflection algorithms compared, by routing-policy name.
POLICIES = ("busch", "greedy", "random-deflection")


def run(params: SweepParams) -> Table:
    """Compare routing algorithms on each sweep size at full load."""
    table = Table(
        title="ABL-BASE — routing algorithms compared (100% injectors)",
        columns=[
            "N",
            "algorithm",
            "delivered",
            "avg delivery",
            "max delivery",
            "avg inject wait",
            "link util",
        ],
    )
    for n in params.sizes:
        util_by_algo: dict[str, float] = {}
        for policy in POLICIES:
            ms = run_point("seq", report_scenario(
                n,
                params.duration,
                policy=policy,
                overrides={"heartbeat": True},  # sample link utilisation
                seed=params.seed,
            ))["model_stats"]
            table.add_row(
                n,
                policy,
                ms["delivered"],
                ms["avg_delivery_time"],
                ms["max_delivery_time"],
                ms["avg_inject_wait"],
                ms["link_utilization"],
            )
            util_by_algo[policy] = ms["link_utilization"]
        # The buffered network is not a hot-potato model, so it has no
        # scenario document and runs on the engine directly, outside the
        # sweep points.
        bcfg = BufferedConfig(n=n, duration=params.duration, window=4)
        result = run_sequential(BufferedModel(bcfg), bcfg.duration, seed=params.seed)
        ms = result.model_stats
        table.add_row(
            n,
            "buffered-flow-control",
            ms["delivered"],
            ms["avg_delivery_time"],
            ms["max_delivery_time"],
            ms["avg_inject_wait"],
            ms["link_utilization"],
        )
        util_by_algo["buffered"] = ms["link_utilization"]
        if util_by_algo.get("buffered", 0) > 0:
            table.notes.append(
                f"N={n}: hot-potato uses {util_by_algo['busch'] / util_by_algo['buffered']:.1f}x "
                f"the link capacity of the flow-controlled network"
            )
    return table
