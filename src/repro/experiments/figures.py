"""Registry mapping experiment ids (DESIGN.md) to their modules.

Each experiment module declares its sweep points, ``points(params)`` (a
dict of experiment-local labels to point specs), and builds its table
from their results, ``table(params, results)`` (the same labels to
result documents); :func:`repro.experiments.runner.run_sweep` runs the
points.
"""

from __future__ import annotations

from types import ModuleType

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

#: Experiment id → (description, module).
EXPERIMENTS: dict[str, tuple[str, ModuleType]] = {
    "fig3": (
        "Figure 3: average delivery time vs N, four injection loads",
        fig3_delivery,
    ),
    "fig4": (
        "Figure 4: average wait-to-inject vs N, four injection loads",
        fig4_injection,
    ),
    "fig5": ("Figure 5: event rate vs N for 1/2/4 PEs", fig5_speedup),
    "fig6": ("Figure 6: efficiency (speed-up / #PE) vs N", fig6_efficiency),
    "fig7": (
        "Figures 7a-c: total events rolled back vs number of KPs",
        fig7_kp_rollbacks,
    ),
    "fig8": ("Figure 8: event rate vs number of KPs", fig8_kp_eventrate),
    "determinism": (
        "Attachment 3: parallel results identical to sequential",
        determinism,
    ),
    "abl-rc": ("Ablation: reverse computation vs state saving", ablation_rollback),
    "abl-map": (
        "Ablation: block vs striped vs random LP/KP/PE mapping",
        ablation_mapping,
    ),
    "abl-base": (
        "Baselines: hot-potato vs greedy/DOR/random and flow control",
        baselines_compare,
    ),
    "abl-adapt": ("Ablation: fixed vs adaptive optimism (throttle)", ablation_adaptive),
    "abl-sync": ("Ablation: Time Warp vs conservative (YAWNS)", ablation_sync),
    "resilience": (
        "Resilience: delivery degradation under injected link/router faults",
        resilience,
    ),
    "scenarios": (
        "Scenarios: delivery, latency percentiles and deflections per "
        "--scenario file",
        scenario_compare,
    ),
    "static": (
        "Static (one-shot) analysis: drain a full network, Das et al. [2]",
        static_analysis,
    ),
    "topo": (
        "Topology: torus (simulated) vs mesh (theoretical analysis)",
        topology_compare,
    ),
    "warmup": ("Methodology: whole-run vs steady-state delivery averages", warmup),
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, params: SweepParams, **sweep) -> Table:
    """Run one experiment by id; ``sweep`` takes the keywords of
    :func:`repro.experiments.runner.run_sweep` (``supervisor``,
    ``procs``, ``telemetry_dir``)."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {experiment_ids()}"
        )
    from repro.experiments.runner import run_sweep

    [(_, table)] = run_sweep([exp_id], params, **sweep)
    return table
