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

from repro.experiments.common import SweepParams, kp_count_for, point_spec
from repro.experiments.report import Table
from repro.scenarios import compile_scenario

__all__ = ["points", "table"]


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


def _scenario(params: SweepParams, rate: float):
    return params.scenario(params.sizes[0], faults=_fault_spec(rate))


def points(params: SweepParams) -> dict:
    """A sequential and a Time Warp point per link-failure rate, on the
    smallest size: one optimistic run per row keeps the determinism
    check honest at every fault level, not just the unfaulted baseline."""
    n = params.sizes[0]
    n_pes = min(4, max(params.pe_counts))
    specs = {}
    for rate in params.fault_rates:
        scenario = _scenario(params, rate)
        specs[rate, "seq"] = point_spec("seq", scenario)
        specs[rate, "opt"] = point_spec(
            "opt", scenario, n_pes=n_pes, n_kps=kp_count_for(n, 16, n_pes),
            batch_size=params.batch_size,
        )
    return specs


def table(params: SweepParams, results: dict) -> Table:
    """Delivery per link-failure rate on the smallest size, with the
    determinism check."""
    n = params.sizes[0]
    table = Table(
        title=f"Resilience — delivery under failed links (N={n}, "
        f"duration={params.duration:g})",
        columns=["fail rate", "links down", "injected", "delivered", "delivery %",
                 "avg time", "deflect %", "fault drops", "seq==opt"],
    )
    links_total = 2 * n * n  # torus: every node owns its EAST and SOUTH link
    for rate in params.fault_rates:
        ms = results[rate, "seq"]["model_stats"]
        opt = results[rate, "opt"]
        injected = ms["injected"] + ms["initial_packets"]
        table.add_row(
            rate, _links_down(_scenario(params, rate)), injected,
            ms["delivered"], 100.0 * ms["delivered"] / injected if injected else 0.0,
            ms["avg_delivery_time"], 100.0 * ms["deflection_rate"],
            ms.get("fault_dropped", 0), opt["model_stats"] == ms,
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
