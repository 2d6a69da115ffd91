"""Shared plumbing for the figure-reproduction experiments.

Every hot-potato run an experiment makes is a sweep point, declared by
:func:`point_spec`: a point kind (``seq`` / ``opt`` / ``cons``), a
scenario — a :func:`repro.scenarios.report_scenario` document, or a
scenario file named by path and identity — and engine settings.  An
experiment declares its points and builds its table from their results;
the sweep (:func:`repro.experiments.runner.run_sweep`) runs each distinct
point once, in-process through
:func:`repro.experiments.pointworker.run_spec` or, under a supervisor,
in a checkpointed child process running that function; either way the
table gets the same result document back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.mapping import kp_count_for

__all__ = ["SweepParams", "point_spec", "kp_count_for", "PROCS_GVT_INTERVAL"]

#: GVT cadence, in rounds, of the Time Warp points a sweep's ``procs``
#: puts in process mode (the engine default is 1): there every GVT is a
#: cross-process stop-and-drain wave worth amortising.  It is part of
#: those points' specs, and so of their ids.
PROCS_GVT_INTERVAL = 8


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

    def scenario(self, n: int, **kw):
        """The :func:`~repro.scenarios.report_scenario` document at size
        ``n`` over the sweep's duration and seed; ``kw`` are its further
        arguments (``seed`` included)."""
        from repro.scenarios import report_scenario

        return report_scenario(n, self.duration, **{"seed": self.seed, **kw})

    def seeds(self) -> tuple[int, ...]:
        """The independent seeds used for replicated data points."""
        return tuple(self.seed + i for i in range(self.replications))

    def optimism(self) -> dict:
        """Time Warp settings of the windowed sweeps: the virtual-time
        ``window`` drives per-round optimism (ROSS-like) and the batch
        size becomes a generous cap."""
        return {"batch_size": max(self.batch_size, 1 << 20), "window": self.window}


def point_spec(kind: str, scenario, **settings) -> dict:
    """The spec of one sweep point, as an experiment declares it.

    ``kind`` is a point kind (``seq`` / ``opt`` / ``cons``); ``scenario``
    is a :class:`~repro.scenarios.Scenario` document (see
    :func:`~repro.scenarios.report_scenario`) or the path of a scenario
    file.  ``settings`` are the engine settings ``n_pes`` / ``n_kps`` /
    ``batch_size`` / ``window`` — the scenario's ``engine`` section
    supplies those not given — and any further
    :class:`~repro.core.config.EngineConfig` fields (``mapping``,
    ``rollback``, ``procs``, ...), which go to the spec's ``overrides``.
    A file is named in the spec by path *and* compiled identity; the
    point worker re-compiles it and refuses to run if it changed since
    the sweep was launched, so ``--resume`` is exact.

    The sweep (:func:`repro.experiments.runner.run_sweep`) adds
    what the invocation decides — ``procs``, the telemetry path, the
    checkpoint cadence — and runs the spec through
    :func:`~repro.experiments.pointworker.run_spec`, whose result
    document the experiment's table reads.
    """
    # Imported here: ``python -m repro.experiments.pointworker`` must not
    # find the module already loaded by this package's import.
    from repro.experiments.pointworker import POINT_KINDS, SETTINGS
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
    if overrides or (kind == "opt" and "path" not in doc):
        # Inline Time Warp points have always carried the key; keeping
        # it keeps their point ids and checkpoint markers.
        spec["overrides"] = overrides or None
    return spec
