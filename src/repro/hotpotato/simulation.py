"""High-level facade: configure, run, and compare engines in one call."""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.result import RunResult
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import RoutingPolicy

__all__ = ["HotPotatoSimulation"]


class HotPotatoSimulation:
    """One-stop API for running the hot-potato model.

    Examples
    --------
    >>> sim = HotPotatoSimulation(HotPotatoConfig(n=8, duration=50.0))
    >>> seq = sim.run()                      # sequential oracle
    >>> par = sim.run_parallel(n_pes=4, n_kps=16)
    >>> assert seq.model_stats == par.model_stats   # repeatability
    """

    def __init__(
        self,
        cfg: HotPotatoConfig | None = None,
        policy: RoutingPolicy | None = None,
        *,
        seed: int = 0x5EED,
        fault_plan=None,
        injection_plan=None,
    ) -> None:
        self.cfg = cfg if cfg is not None else HotPotatoConfig()
        self.policy = policy
        self.seed = seed
        #: Optional repro.faults.FaultPlan applied to every run started
        #: from this facade.  Model faults are compiled into the model
        #: (all engines see them identically); transport faults and PE
        #: stalls additionally perturb the parallel engines' scheduling
        #: without changing committed results.
        self.fault_plan = fault_plan
        #: Optional repro.scenarios.InjectionPlan: a scripted adversary
        #: replacing the Bernoulli injection application on every run.
        self.injection_plan = injection_plan

    def _model(self) -> HotPotatoModel:
        # A fresh model per run: LP state is single-use.
        return HotPotatoModel(
            self.cfg,
            self.policy,
            fault_plan=self.fault_plan,
            injection_plan=self.injection_plan,
        )

    def _engine_faults(self):
        plan = self.fault_plan
        if plan is None or not plan.has_engine_faults:
            return None
        from repro.faults.injector import EngineFaults

        return EngineFaults(plan)

    def run(
        self,
        *,
        tracer=None,
        metrics=None,
        spans=None,
        checkpointer=None,
        health=None,
        paranoid=False,
    ) -> RunResult:
        """Run on the sequential oracle engine (optionally instrumented)."""
        return run_sequential(
            self._model(),
            self.cfg.duration,
            seed=self.seed,
            paranoid=paranoid,
            tracer=tracer,
            metrics=metrics,
            spans=spans,
            checkpointer=checkpointer,
            health=health,
        )

    def run_parallel(
        self,
        n_pes: int = 4,
        n_kps: int = 64,
        *,
        batch_size: int = 16,
        engine_config: EngineConfig | None = None,
        tracer=None,
        metrics=None,
        spans=None,
        checkpointer=None,
        health=None,
        **overrides: Any,
    ) -> RunResult:
        """Run on the Time Warp engine.

        Either pass a full :class:`EngineConfig` (its ``end_time`` is
        overridden by the model duration) or let this method build one
        from ``n_pes`` / ``n_kps`` / ``batch_size`` plus keyword overrides
        (``mapping=...``, ``rollback=...``, ...).
        """
        if engine_config is not None:
            ecfg = replace(engine_config, end_time=self.cfg.duration)
        else:
            ecfg = EngineConfig(
                end_time=self.cfg.duration,
                n_pes=n_pes,
                n_kps=n_kps,
                batch_size=batch_size,
                seed=self.seed,
                **overrides,
            )
        return run_optimistic(
            self._model(),
            ecfg,
            tracer=tracer,
            metrics=metrics,
            spans=spans,
            faults=self._engine_faults(),
            checkpointer=checkpointer,
            health=health,
        )

    def validate_determinism(self, n_pes: int = 4, n_kps: int = 16) -> bool:
        """The report's Attachment-3 check: parallel results == sequential."""
        return (
            self.run().model_stats
            == self.run_parallel(n_pes=n_pes, n_kps=n_kps).model_stats
        )
