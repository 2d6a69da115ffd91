"""Shared plumbing for the figure-reproduction experiments.

A run of the workhorses below is a sweep point: a scenario document
(:func:`repro.scenarios.report_scenario`, or a scenario file named by
path and identity) plus engine settings.  The same point spec runs
in-process through :func:`repro.experiments.pointworker.run_spec` or, under
a supervisor, in a checkpointed child process running that function.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.mapping import kp_count_for
from repro.core.result import RunResult

__all__ = [
    "SweepParams",
    "run_hotpotato_sequential",
    "run_hotpotato_parallel",
    "run_scenario_point",
    "kp_count_for",
    "set_telemetry_dir",
    "set_supervisor",
    "set_parallelism",
]

#: When set (see :func:`set_telemetry_dir`), every hot-potato run the
#: experiment workhorses execute records its GVT-interval metrics to one
#: JSONL file in this directory, named from the run parameters.
_TELEMETRY_DIR: Path | None = None


def set_telemetry_dir(directory: Path | str | None) -> None:
    """Enable (or, with ``None``, disable) per-run telemetry capture.

    Used by the experiments CLI's ``--telemetry-dir``; repeated runs with
    identical parameters overwrite each other's file (the runs are
    deterministic, so nothing is lost).
    """
    global _TELEMETRY_DIR
    _TELEMETRY_DIR = None if directory is None else Path(directory)
    if _TELEMETRY_DIR is not None:
        _TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)


#: When set (see :func:`set_supervisor`), the workhorses below do not
#: simulate in this process: each run becomes a sweep-point spec handed
#: to the :class:`repro.experiments.supervisor.Supervisor`, which
#: executes it in a watchdogged child process with checkpoint/resume
#: and bounded retries, on the engine the spec names.
_SUPERVISOR = None


def set_supervisor(supervisor) -> None:
    """Route every subsequent workhorse run through ``supervisor``
    (``None`` restores in-process execution)."""
    global _SUPERVISOR
    _SUPERVISOR = supervisor


#: When set (see :func:`set_parallelism`), every Time Warp run the
#: workhorses execute goes through process mode: ``(procs, gvt_interval)``.
_PARALLELISM: tuple[int, int] | None = None


def set_parallelism(procs: int | None, gvt_interval: int = 8) -> None:
    """Route subsequent :func:`run_hotpotato_parallel` calls through
    ``procs`` OS worker processes (``None`` restores in-process runs).

    Committed results are bit-identical either way, so every figure's
    numbers are unchanged — only the wall-clock profile moves.  Points
    whose PE count is not a multiple of ``procs`` fall back to the
    in-process engine (a PE cannot be split across workers), as do
    supervised (``--out-dir``) sweeps, whose points already run in their
    own checkpointed child processes.  ``gvt_interval`` replaces the
    engine default of 1 because in process mode every GVT is a
    cross-process stop-and-drain wave worth amortising.
    """
    global _PARALLELISM
    _PARALLELISM = None if procs is None else (procs, gvt_interval)


def _telemetry_path(tag: str) -> str | None:
    if _TELEMETRY_DIR is None:
        return None
    return str(_TELEMETRY_DIR / f"{tag}.jsonl")


def _run_point(spec: dict, tag: str) -> RunResult:
    """Run one point spec in-process, or hand it to the supervisor."""
    spec["telemetry"] = _telemetry_path(tag)
    if _SUPERVISOR is None:
        # Imported here: ``python -m repro.experiments.pointworker`` must
        # not find the module already loaded by this package's import.
        from repro.experiments.pointworker import run_spec

        return run_spec(spec)
    spec["checkpoint_every"] = _SUPERVISOR.cfg.checkpoint_every
    doc = _SUPERVISOR.run_point(spec)
    # The child strips the LPs (their fused handlers don't pickle);
    # every experiment consumes only the statistics.
    return RunResult(model_stats=doc["model_stats"], run=doc["run"], lps=[])


def _report_doc(n: int, load: float, duration: float, seed: int, fault) -> dict:
    from repro.scenarios import report_scenario

    return report_scenario(
        n, duration, injector_fraction=load, seed=seed, faults=fault
    ).to_dict()


#: Injection loads used by Figs 3 and 4 ("% Injecting Routers").
DEFAULT_LOADS: tuple[float, ...] = (0.25, 0.50, 0.75, 1.00)


@dataclass(frozen=True)
class SweepParams:
    """Parameters shared by the experiment runners.

    The defaults are laptop-scale; the report sweeps N up to 256 and the
    CLI accepts the full range (``--sizes 8,16,...,256``) for anyone with
    the patience.
    """

    sizes: tuple[int, ...] = (8, 16)
    duration: float = 100.0
    loads: tuple[float, ...] = DEFAULT_LOADS
    pe_counts: tuple[int, ...] = (1, 2, 4)
    kp_counts: tuple[int, ...] = (4, 8, 16, 32, 64)
    batch_size: int = 16
    #: Virtual-time optimism window (steps) for the Time Warp sweeps; see
    #: EngineConfig.window.  Scales per-round optimism with network size.
    window: float = 2.0
    #: Independent seeds per data point for figs 3/4 (1 = the report's
    #: single-seed methodology; more adds Student-t confidence intervals).
    replications: int = 1
    seed: int = 0x5EED
    #: Link-failure fractions swept by the resilience experiment (0.0 is
    #: the unfaulted baseline row).
    fault_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20)
    #: Explicit FaultPlan JSON file; when set, the resilience experiment
    #: runs that single plan instead of sweeping ``fault_rates``.
    fault_plan: str | None = None
    #: Seed for rate-generated fault plans (None = repro.faults default).
    fault_seed: int | None = None
    #: Scenario JSON files (see docs/SCENARIOS.md) compared side by side
    #: by the ``scenarios`` experiment; each file fully describes its own
    #: topology, traffic, policy, engine defaults and faults.
    scenarios: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one network size required")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(not 0.0 <= r <= 1.0 for r in self.fault_rates):
            raise ValueError("fault_rates must be fractions in [0, 1]")

    def seeds(self) -> tuple[int, ...]:
        """The independent seeds used for replicated data points."""
        return tuple(self.seed + i for i in range(self.replications))


def run_hotpotato_sequential(
    n: int, load: float, duration: float, seed: int, *, fault=None
) -> RunResult:
    """One sequential hot-potato run (the Fig 3/4 workhorse).

    ``fault`` is the scenario's ``faults`` section — a plan path or
    ``{"generate": {"link_fail_rate": r, "seed": s}}`` — so the run stays
    one JSON point spec, supervised or not.
    """
    spec = {"kind": "seq", "scenario": _report_doc(n, load, duration, seed, fault)}
    return _run_point(spec, f"seq_n{n}_load{load:g}_d{duration:g}_s{seed}")


def run_hotpotato_parallel(
    n: int,
    load: float,
    duration: float,
    seed: int,
    *,
    n_pes: int,
    n_kps: int,
    batch_size: int = 16,
    window: float | None = None,
    fault=None,
    **overrides,
) -> RunResult:
    """One Time Warp hot-potato run (the Fig 5-8 workhorse).

    When ``window`` is given, the batch size becomes a generous cap and
    the virtual-time window drives per-round optimism (ROSS-like).
    ``fault`` is as in :func:`run_hotpotato_sequential`; ``overrides``
    are further :class:`~repro.core.config.EngineConfig` fields.
    """
    if window is not None:
        batch_size = max(batch_size, 1 << 20)
    if _SUPERVISOR is None and _PARALLELISM is not None and "procs" not in overrides:
        procs, gvt_interval = _PARALLELISM
        # A PE cannot be split across workers, so points whose PE count
        # doesn't tile over the processes stay in-process (results are
        # bit-identical either way).
        if n_pes % procs == 0:
            overrides["procs"] = procs
            overrides.setdefault("gvt_interval", gvt_interval)
    spec = {
        "kind": "opt", "scenario": _report_doc(n, load, duration, seed, fault),
        "n_pes": n_pes, "n_kps": n_kps, "batch_size": batch_size,
        "window": window, "overrides": overrides or None,
    }
    return _run_point(
        spec, f"opt_n{n}_load{load:g}_d{duration:g}_pe{n_pes}_kp{n_kps}_s{seed}"
    )


def run_scenario_point(path: str, *, kind: str = "seq") -> RunResult:
    """One declared-scenario run (the scenario-compare workhorse).

    ``kind`` is a point kind (``seq`` / ``opt`` / ``cons``); everything
    else — topology, traffic, policy, duration, seed, faults and the
    parallel-engine defaults — comes from the scenario file itself.  The
    spec names the file by path *and* compiled identity; the point worker
    re-compiles it and refuses to run if it changed since the sweep was
    launched, so ``--resume`` is exact.  Sequential runs add latency
    percentiles to ``model_stats`` (see :func:`run_spec`).
    """
    from repro.experiments.pointworker import POINT_KINDS
    from repro.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(load_scenario(path))
    spec = {
        "kind": kind,
        "scenario": {"path": str(path), "hash": compiled.scenario_hash()},
        **compiled.engine_settings(POINT_KINDS[kind]),
    }
    return _run_point(spec, f"scen_{compiled.name}_{kind}_s{compiled.sim.seed}")
