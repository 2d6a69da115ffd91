"""Registry mapping experiment ids (DESIGN.md) to their runners."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    ablation_adaptive,
    ablation_mapping,
    ablation_rollback,
    ablation_sync,
    baselines_compare,
    determinism,
    fig3_delivery,
    fig4_injection,
    fig5_speedup,
    fig6_efficiency,
    fig7_kp_rollbacks,
    fig8_kp_eventrate,
    resilience,
    scenario_compare,
    static_analysis,
    topology_compare,
    warmup,
)
from repro.experiments.common import SweepParams
from repro.experiments.report import Table

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

#: Experiment id → (description, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[[SweepParams], Table]]] = {
    "fig3": (
        "Figure 3: average delivery time vs N, four injection loads",
        fig3_delivery.run,
    ),
    "fig4": (
        "Figure 4: average wait-to-inject vs N, four injection loads",
        fig4_injection.run,
    ),
    "fig5": (
        "Figure 5: event rate vs N for 1/2/4 PEs",
        fig5_speedup.run,
    ),
    "fig6": (
        "Figure 6: efficiency (speed-up / #PE) vs N",
        fig6_efficiency.run,
    ),
    "fig7": (
        "Figures 7a-c: total events rolled back vs number of KPs",
        fig7_kp_rollbacks.run,
    ),
    "fig8": (
        "Figure 8: event rate vs number of KPs",
        fig8_kp_eventrate.run,
    ),
    "determinism": (
        "Attachment 3: parallel results identical to sequential",
        determinism.run,
    ),
    "abl-rc": (
        "Ablation: reverse computation vs state saving",
        ablation_rollback.run,
    ),
    "abl-map": (
        "Ablation: block vs striped vs random LP/KP/PE mapping",
        ablation_mapping.run,
    ),
    "abl-base": (
        "Baselines: hot-potato vs greedy/DOR/random and flow control",
        baselines_compare.run,
    ),
    "abl-adapt": (
        "Ablation: fixed vs adaptive optimism (throttle)",
        ablation_adaptive.run,
    ),
    "abl-sync": (
        "Ablation: Time Warp vs conservative (YAWNS)",
        ablation_sync.run,
    ),
    "resilience": (
        "Resilience: delivery degradation under injected link/router faults",
        resilience.run,
    ),
    "scenarios": (
        "Scenarios: delivery, latency percentiles and deflections per "
        "--scenario file",
        scenario_compare.run,
    ),
    "static": (
        "Static (one-shot) analysis: drain a full network, Das et al. [2]",
        static_analysis.run,
    ),
    "topo": (
        "Topology: torus (simulated) vs mesh (theoretical analysis)",
        topology_compare.run,
    ),
    "warmup": (
        "Methodology: whole-run vs steady-state delivery averages",
        warmup.run,
    ),
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, params: SweepParams) -> Table:
    """Run one experiment by id."""
    try:
        _, runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {experiment_ids()}"
        ) from None
    return runner(params)
