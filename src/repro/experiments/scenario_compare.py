"""SCEN: declared scenario files compared side by side.

Each ``--scenario FILE`` (see docs/SCENARIOS.md) fully describes its own
experiment — topology, traffic (Bernoulli or scripted adversary),
routing policy, engine defaults and faults — so unlike the figure
sweeps this table has no parameter grid: one row per file, produced by
the sequential oracle with a delivery log, plus a parallel-engine rerun
whose committed statistics must match bit for bit (the ``par=seq``
column; the determinism contract extends to adversarial workloads).

Latency percentiles are nearest-rank over per-packet delivery times
(deliver step minus inject step); the delivery fraction is against the
offered load (initial placement plus everything injected).
"""

from __future__ import annotations

from repro.experiments.common import SweepParams, point_spec
from repro.experiments.report import Table
from repro.scenarios import Scenario, compile_scenario, load_scenario

__all__ = ["points", "table"]


def _traffic_label(scenario: Scenario) -> str:
    traffic = scenario.traffic
    if traffic["model"] == "bernoulli":
        return f"bernoulli@{float(traffic.get('injector_fraction', 1.0)):g}"
    return f"{traffic['strategy']}@{float(traffic.get('rate', 1.0)):g}"


def points(params: SweepParams) -> dict:
    """A sequential and a parallel-engine point per scenario file."""
    return {
        (path, kind): point_spec(kind, path)
        for path in params.scenarios
        for kind in ("seq", "opt")
    }


def table(params: SweepParams, results: dict) -> Table:
    """One row per scenario file in ``params.scenarios``."""
    table = Table(
        title="SCEN — declared scenarios compared (sequential oracle)",
        columns=["scenario", "N", "policy", "traffic", "injected", "delivered",
                 "delivery %", "lat p50", "lat p95", "lat p99", "defl %", "par=seq"],
    )
    if not params.scenarios:
        table.notes.append(
            "no scenario files given; pass --scenario FILE (repeatable), "
            "e.g. --scenario examples/scenarios/adversarial_hotspot.json"
        )
        return table
    for path in params.scenarios:
        compiled = compile_scenario(load_scenario(path))
        ms = results[path, "seq"]["model_stats"]
        offered = ms["injected"] + ms["initial_packets"]
        # The sequential stats additionally carry the latency percentiles;
        # strip them before the engine-agreement comparison.
        committed = {k: v for k, v in ms.items() if not k.startswith("latency_")}
        table.add_row(
            compiled.name, compiled.sim.cfg.n, compiled.sim.policy.name,
            _traffic_label(compiled.scenario), ms["injected"], ms["delivered"],
            round(100.0 * ms["delivered"] / offered, 2) if offered else 0.0,
            ms["latency_p50"], ms["latency_p95"], ms["latency_p99"],
            round(100.0 * ms["deflection_rate"], 2),
            results[path, "opt"]["model_stats"] == committed,
        )
        table.notes.append(
            f"{compiled.name}: hash {compiled.scenario_hash()} ({path})"
        )
    return table
