"""Resilience sweep: hot-potato routing under injected faults.

The Busch–Herlihy–Wattenhofer algorithm needs no flow control because
packets never wait — they deflect.  The same property makes it naturally
fault-tolerant: a dead link is just one more direction a packet cannot
take this step, and the greedy/home-run machinery already knows what to
do with that.  This experiment quantifies the claim: sweep the fraction
of permanently failed links and watch delivery degrade *gracefully* —
fewer packets arrive and they take longer, but the network never
livelocks and the run always terminates.  Each plan is generated at the
default fault seed; an explicit :class:`~repro.faults.FaultPlan`, or
another seed, is a scenario file run by the ``scenarios`` experiment.

Each row also re-runs one configuration on the Time Warp engine and
checks the committed model statistics against the sequential oracle:
fault injection must not cost us the determinism contract.
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, kp_count_for, run_point
from repro.experiments.report import Table
from repro.scenarios import compile_scenario, report_scenario

__all__ = ["run"]


def _fault_spec(rate: float):
    """The scenario ``faults`` section one sweep row runs under (None
    for rate 0).

    Rate-generated plans describe permanent link failures (no
    heal_after): the hardest case — lost capacity never comes back, so
    degradation is monotone in the rate.  The section (rather than a
    materialized FaultPlan) is what travels to a supervised child
    process; the scenario compiler expands it identically either way.
    """
    if rate <= 0.0:
        return None
    return {"generate": {"link_fail_rate": rate}}


def _links_down(scenario) -> int:
    """Count the scheduled link_down events for the row's label column."""
    plan = compile_scenario(scenario).sim.fault_plan
    if plan is None:
        return 0
    return sum(1 for ev in plan.events if ev.kind == "link_down")


def run(params: SweepParams) -> Table:
    """Sweep link-failure rates on the smallest size; check determinism."""
    n = params.sizes[0]
    table = Table(
        title=f"Resilience — delivery under failed links (N={n}, "
        f"duration={params.duration:g})",
        columns=[
            "fail rate",
            "links down",
            "injected",
            "delivered",
            "delivery %",
            "avg time",
            "deflect %",
            "fault drops",
            "seq==opt",
        ],
    )
    links_total = 2 * n * n  # torus: every node owns its EAST and SOUTH link
    for rate in params.fault_rates:
        scenario = report_scenario(
            n, params.duration, seed=params.seed, faults=_fault_spec(rate)
        )
        ms = run_point("seq", scenario)["model_stats"]
        # One optimistic run per row keeps the determinism check honest
        # at every fault level, not just the unfaulted baseline.
        n_pes = min(4, max(params.pe_counts))
        opt = run_point(
            "opt",
            scenario,
            n_pes=n_pes,
            n_kps=kp_count_for(n, 16, n_pes),
            batch_size=params.batch_size,
        )
        injected = ms["injected"] + ms["initial_packets"]
        down = _links_down(scenario)
        table.add_row(
            rate,
            down,
            injected,
            ms["delivered"],
            100.0 * ms["delivered"] / injected if injected else 0.0,
            ms["avg_delivery_time"],
            100.0 * ms["deflection_rate"],
            ms.get("fault_dropped", 0),
            opt["model_stats"] == ms,
        )
    table.notes.append(
        f"{links_total} physical links; rate-generated plans fail links "
        "permanently (no healing), the worst case for capacity"
    )
    table.notes.append(
        "seq==opt compares complete model statistics (incl. per-router "
        "fingerprints) between the sequential oracle and Time Warp"
    )
    return table
