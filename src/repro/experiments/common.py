"""Shared plumbing for the figure-reproduction experiments.

Every hot-potato run an experiment makes is a sweep point, run by
:func:`run_point`: a point kind (``seq`` / ``opt`` / ``cons``), a
scenario — a :func:`repro.scenarios.report_scenario` document, or a
scenario file named by path and identity — and engine settings.  The
same point spec runs in-process through
:func:`repro.experiments.pointworker.run_spec` or, under a supervisor,
in a checkpointed child process running that function; either way the
experiment gets the same result document back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.mapping import kp_count_for

__all__ = [
    "SweepParams",
    "run_point",
    "kp_count_for",
    "set_telemetry_dir",
    "set_supervisor",
    "set_parallelism",
    "take_in_process_points",
]

#: When set (see :func:`set_telemetry_dir`), every point :func:`run_point`
#: executes records its GVT-interval metrics to one JSONL file in this
#: directory, named by the point's id.
_TELEMETRY_DIR: Path | None = None


def set_telemetry_dir(directory: Path | str | None) -> None:
    """Enable (or, with ``None``, disable) per-point telemetry capture.

    Used by the experiments CLI's ``--telemetry-dir``.  Each point writes
    ``<point id>.jsonl`` (:func:`repro.experiments.supervisor.point_id`
    of its spec), so two points share a file only if they are the same
    point — and points are deterministic, so nothing is lost.
    """
    global _TELEMETRY_DIR
    _TELEMETRY_DIR = None if directory is None else Path(directory)
    if _TELEMETRY_DIR is not None:
        _TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)


#: When set (see :func:`set_supervisor`), :func:`run_point` does not
#: simulate in this process: each point spec is handed to the
#: :class:`repro.experiments.supervisor.Supervisor`, which executes it in
#: a watchdogged child process with checkpoint/resume and bounded
#: retries, on the engine the spec names.
_SUPERVISOR = None


def set_supervisor(supervisor) -> None:
    """Route every subsequent point through ``supervisor`` (``None``
    restores in-process execution)."""
    global _SUPERVISOR
    _SUPERVISOR = supervisor


#: GVT cadence, in rounds, of the Time Warp points :func:`set_parallelism`
#: puts in process mode (the engine default is 1): there every GVT is a
#: cross-process stop-and-drain wave worth amortising.  It is part of
#: those points' specs, and so of their ids.
PROCS_GVT_INTERVAL = 8
#: When set (see :func:`set_parallelism`), every Time Warp point runs in
#: process mode over this many OS processes.
_PROCS: int | None = None
#: ``(N, PEs)`` of the Time Warp points ``procs`` could not split since
#: :func:`take_in_process_points` was last called.
_IN_PROCESS: set[tuple[int, int]] = set()


def set_parallelism(procs: int | None) -> None:
    """Run subsequent Time Warp points (``opt`` points that do not set
    ``procs`` themselves) over ``procs`` OS worker processes at a GVT
    interval of ``PROCS_GVT_INTERVAL`` (``None`` restores in-process
    runs); supervised points included.

    Committed results are bit-identical either way, so every figure's
    numbers are unchanged — only the wall-clock profile moves.  A point
    whose PE count is not a multiple of ``procs`` runs in-process (a PE
    cannot be split across workers) and is named by
    :func:`take_in_process_points`.
    """
    global _PROCS
    _PROCS = procs


def take_in_process_points() -> str | None:
    """A table note naming the Time Warp points ``procs`` did not split
    since the last call (``None`` when there were none)."""
    if not _IN_PROCESS:
        return None
    names = ", ".join(f"N={n} on {pes} PEs" for n, pes in sorted(_IN_PROCESS))
    _IN_PROCESS.clear()
    return f"--procs does not divide the PE count of {names}: these points ran in-process"


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
    #: the unfaulted baseline row), each plan generated at the default
    #: fault seed.  Another seed, or an explicit plan, is a scenario file
    #: run by the ``scenarios`` experiment.
    fault_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20)
    #: Scenario JSON files (see docs/SCENARIOS.md) compared side by side
    #: by the ``scenarios`` experiment; each file fully describes its own
    #: topology, traffic, policy, engine defaults and faults.
    scenarios: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("sizes", "pe_counts", "kp_counts"):
            values = getattr(self, name)
            if not values or min(values) < 1:
                raise ValueError(f"{name} must be one or more values >= 1, got {values}")
        for name in ("loads", "fault_rates"):
            values = getattr(self, name)
            if not values or not 0.0 <= min(values) <= max(values) <= 1.0:
                raise ValueError(
                    f"{name} must be one or more fractions in [0, 1], got {values}"
                )
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration:g}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")

    def seeds(self) -> tuple[int, ...]:
        """The independent seeds used for replicated data points."""
        return tuple(self.seed + i for i in range(self.replications))

    def optimism(self) -> dict:
        """Time Warp settings of the windowed sweeps: the virtual-time
        ``window`` drives per-round optimism (ROSS-like) and the batch
        size becomes a generous cap."""
        return {"batch_size": max(self.batch_size, 1 << 20), "window": self.window}


def run_point(kind: str, scenario, **settings) -> dict:
    """Run one sweep point; returns its result document.

    ``kind`` is a point kind (``seq`` / ``opt`` / ``cons``); ``scenario``
    is a :class:`~repro.scenarios.Scenario` document (see
    :func:`~repro.scenarios.report_scenario`) or the path of a scenario
    file.  ``settings`` are the engine settings ``n_pes`` / ``n_kps`` /
    ``batch_size`` / ``window`` — the scenario's ``engine`` section
    supplies those not given — and any further
    :class:`~repro.core.config.EngineConfig` fields (``mapping``,
    ``rollback``, ``procs``, ...).  A file is named in the spec by path
    *and* compiled identity; the point worker re-compiles it and refuses
    to run if it changed since the sweep was launched, so ``--resume`` is
    exact.

    The document is :func:`~repro.experiments.pointworker.run_spec`'s:
    ``model_stats`` and ``run``, plus ``delivery_log`` when the scenario
    declares one; a sequential point of a scenario file adds latency
    percentiles to ``model_stats``.
    """
    # Imported here: ``python -m repro.experiments.pointworker`` must not
    # find the module already loaded by this package's import.
    from repro.experiments.pointworker import POINT_KINDS, SETTINGS, run_spec
    from repro.scenarios import compile_scenario, load_scenario

    overrides = {k: settings.pop(k) for k in list(settings) if k not in SETTINGS}
    if isinstance(scenario, (str, Path)):
        compiled = compile_scenario(load_scenario(scenario))
        doc = {"path": str(scenario), "hash": compiled.scenario_hash()}
    else:
        compiled = compile_scenario(scenario)
        doc = scenario.to_dict()
    spec = {
        "kind": kind, "scenario": doc,
        **compiled.engine_settings(POINT_KINDS[kind]), **settings,
    }
    if kind == "opt" and _PROCS is not None and "procs" not in overrides:
        if spec["n_pes"] % _PROCS == 0:
            overrides["procs"] = _PROCS
            overrides.setdefault("gvt_interval", PROCS_GVT_INTERVAL)
        else:
            _IN_PROCESS.add((compiled.sim.cfg.n, spec["n_pes"]))
    if overrides or (kind == "opt" and "path" not in doc):
        # Inline Time Warp points have always carried the key; keeping
        # it keeps their point ids and checkpoint markers.
        spec["overrides"] = overrides or None
    telemetry = None
    if _TELEMETRY_DIR is not None:
        from repro.experiments.supervisor import point_id

        telemetry = str(_TELEMETRY_DIR / f"{point_id(spec)}.jsonl")
    spec["telemetry"] = telemetry
    if _SUPERVISOR is None:
        return run_spec(spec)
    from repro.experiments.supervisor import POINT_CHECKPOINT_EVERY

    spec["checkpoint_every"] = POINT_CHECKPOINT_EVERY
    return _SUPERVISOR.run_point(spec)
