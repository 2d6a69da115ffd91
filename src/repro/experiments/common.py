"""Shared plumbing for the figure-reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.result import RunResult
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

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


def _capture(tag: str, meta: dict):
    """Build a RunCapture for one tagged run, or None when disabled."""
    if _TELEMETRY_DIR is None:
        return None
    from repro.obs.capture import RunCapture

    return RunCapture(metrics_out=_TELEMETRY_DIR / f"{tag}.jsonl", meta=meta)


#: When set (see :func:`set_supervisor`), the workhorses below do not
#: simulate in this process: each run becomes a sweep-point spec handed
#: to the :class:`repro.experiments.supervisor.Supervisor`, which
#: executes it in a watchdogged child process with checkpoint/resume,
#: bounded retries and optimistic→conservative fallback.
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


def _supervised(spec: dict) -> RunResult:
    doc = _SUPERVISOR.run_point(spec)
    # The child strips the LPs (their fused handlers don't pickle);
    # every experiment consumes only the statistics.
    return RunResult(model_stats=doc["model_stats"], run=doc["run"], lps=[])


def _materialize_fault(fault, n: int, duration: float):
    if not fault:
        return None
    from repro.experiments.pointworker import _materialize_fault_plan

    return _materialize_fault_plan(fault, n, duration)

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


def kp_count_for(n: int, requested: int, n_pes: int) -> int:
    """Largest usable KP count <= ``requested`` for an n×n grid.

    Block mapping needs the balanced factorisation of the KP count to tile
    the grid and the PE count to tile the KPs; powers of four (1, 4, 16,
    64) tile any even grid, so we round down within that family when the
    requested count does not fit.
    """
    from repro.core.mapping import balanced_tile_counts

    def fits(k: int) -> bool:
        if k < n_pes or k % n_pes or k > n * n:
            return False
        kr, kc = balanced_tile_counts(k)
        if n % kr or n % kc:
            return False
        pr, pc = balanced_tile_counts(n_pes)
        return kr % pr == 0 and kc % pc == 0

    k = requested
    while k >= n_pes:
        if fits(k):
            return k
        k -= 1
    raise ValueError(f"no usable KP count <= {requested} for n={n}, pes={n_pes}")


def run_hotpotato_sequential(
    n: int, load: float, duration: float, seed: int, *, fault=None
) -> RunResult:
    """One sequential hot-potato run (the Fig 3/4 workhorse).

    ``fault`` is an optional JSON-shaped fault spec (``{"plan": path}``
    or ``{"link_rate": r, "seed": s}``) so the run stays describable as
    a supervisor sweep point; inline runs materialize it to a FaultPlan.
    """
    tag = f"seq_n{n}_load{load:g}_d{duration:g}_s{seed}"
    if _SUPERVISOR is not None:
        return _supervised({
            "kind": "seq", "n": n, "load": load, "duration": duration,
            "seed": seed, "fault": fault, "telemetry": _telemetry_path(tag),
            "checkpoint_every": _SUPERVISOR.cfg.checkpoint_every,
        })
    cfg = HotPotatoConfig(n=n, duration=duration, injector_fraction=load)
    capture = _capture(
        tag,
        {"engine": "sequential", "n": n, "load": load, "duration": duration,
         "seed": seed},
    )
    result = run_sequential(
        HotPotatoModel(cfg, fault_plan=_materialize_fault(fault, n, duration)),
        duration,
        seed=seed,
        metrics=capture.metrics if capture is not None else None,
    )
    if capture is not None:
        capture.finalize(result)
    return result


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
    ``fault`` takes a JSON-shaped fault spec as in
    :func:`run_hotpotato_sequential`.
    """
    if window is not None:
        batch_size = max(batch_size, 1 << 20)
    tag = f"opt_n{n}_load{load:g}_d{duration:g}_pe{n_pes}_kp{n_kps}_s{seed}"
    if _SUPERVISOR is not None:
        return _supervised({
            "kind": "opt", "n": n, "load": load, "duration": duration,
            "seed": seed, "n_pes": n_pes, "n_kps": n_kps,
            "batch_size": batch_size, "window": window,
            "overrides": overrides or None, "fault": fault,
            "telemetry": _telemetry_path(tag),
            "checkpoint_every": _SUPERVISOR.cfg.checkpoint_every,
        })
    cfg = HotPotatoConfig(n=n, duration=duration, injector_fraction=load)
    if _PARALLELISM is not None and "procs" not in overrides:
        procs, gvt_interval = _PARALLELISM
        # A PE cannot be split across workers, so points whose PE count
        # doesn't tile over the processes stay in-process (results are
        # bit-identical either way).
        if n_pes % procs == 0:
            overrides["procs"] = procs
            overrides.setdefault("gvt_interval", gvt_interval)
    ecfg = EngineConfig(
        end_time=duration,
        n_pes=n_pes,
        n_kps=n_kps,
        batch_size=batch_size,
        window=window,
        seed=seed,
        **overrides,
    )
    plan = _materialize_fault(fault, n, duration)
    faults = None
    if plan is not None and plan.has_engine_faults:
        from repro.faults.injector import EngineFaults

        faults = EngineFaults(plan)
    capture = _capture(
        tag,
        {"engine": "optimistic", "n": n, "load": load, "duration": duration,
         "n_pes": n_pes, "n_kps": n_kps, "seed": seed},
    )
    result = run_optimistic(
        HotPotatoModel(cfg, fault_plan=plan),
        ecfg,
        metrics=capture.metrics if capture is not None else None,
        faults=faults,
    )
    if capture is not None:
        capture.finalize(result)
    return result


def run_scenario_point(
    path: str, *, kind: str = "seq", seed: int | None = None
) -> RunResult:
    """One declared-scenario run (the scenario-compare workhorse).

    ``kind`` is a supervisor point kind (``seq`` / ``opt`` / ``cons``);
    everything else — topology, traffic, policy, duration, faults and the
    parallel-engine defaults — comes from the scenario file itself, so the
    sweep point is fully described by ``(kind, scenario, seed)``.  Under a
    supervisor the spec carries the scenario's name, path *and* content
    hash; the pointworker re-hashes the file and refuses to run if it
    changed since the sweep was launched, so ``--resume`` is exact.

    Sequential runs keep a delivery log and add nearest-rank latency
    percentiles (``latency_p50`` / ``latency_p95`` / ``latency_p99``) to
    ``model_stats``.
    """
    from repro.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(load_scenario(path))
    if seed is None:
        seed = compiled.seed
    tag = f"scen_{compiled.name}_{kind}_s{seed}"
    scen_key = {
        "path": str(path),
        "name": compiled.name,
        "hash": compiled.scenario_hash(),
    }
    if _SUPERVISOR is not None:
        spec = {
            "kind": kind, "scenario": scen_key, "seed": seed,
            "telemetry": _telemetry_path(tag),
            "checkpoint_every": _SUPERVISOR.cfg.checkpoint_every,
        }
        if kind != "seq":
            spec.update({
                "n_pes": compiled.n_pes, "n_kps": compiled.n_kps,
                "batch_size": compiled.batch_size, "window": compiled.window,
            })
        return _supervised(spec)
    capture = _capture(
        tag,
        {"engine": kind, "scenario": compiled.name,
         "scenario_hash": scen_key["hash"], "seed": seed},
    )
    engine = {"seq": "sequential", "cons": "conservative",
              "opt": "optimistic"}[kind]
    model = compiled.build_model(delivery_log=(kind == "seq"))
    result = compiled.run(
        engine,
        seed=seed,
        model=model,
        metrics=capture.metrics if capture is not None else None,
    )
    if kind == "seq":
        from repro.experiments.pointworker import _delivery_percentiles

        result.model_stats.update(_delivery_percentiles(model.delivery_log))
    if capture is not None:
        capture.finalize(result)
    return result
