"""The one builder: a run declaration in, a model, an engine and a run out.

Every entry point — ``repro.hotpotato``, ``repro.scenarios``, the sweep
points and point worker, the chaos episodes and the profiler —
declares its run as a scenario (:mod:`repro.scenarios`) or a config, and
:class:`HotPotatoSimulation` alone turns that into a fresh
:class:`~repro.hotpotato.model.HotPotatoModel`, an engine with the fault
plan's engine faults attached, and a run with the caller's hooks.

It imports only the kernel it builds: a sequential run never loads the
conservative or the Time Warp kernel, nor process mode.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.mapping import build_mapping, kp_count_for
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import RoutingPolicy

if TYPE_CHECKING:
    from repro.core.result import RunResult

__all__ = ["ENGINES", "HotPotatoSimulation"]

#: Engine kinds :meth:`HotPotatoSimulation.engine` builds.
ENGINES = ("sequential", "conservative", "optimistic")


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

    def model(self, *, delivery_log: bool | None = None) -> HotPotatoModel:
        """A fresh model (LP state is single-use); ``delivery_log``
        overrides the config's choice of keeping a delivery log."""
        cfg = self.cfg
        if delivery_log is not None and delivery_log != cfg.delivery_log:
            cfg = replace(cfg, delivery_log=delivery_log)
        return HotPotatoModel(
            cfg,
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

    def engine_config(
        self, n_pes: int = 4, n_kps: int | None = None, **fields
    ) -> EngineConfig:
        """A Time Warp configuration for this run, refused up front.

        ``n_kps=None`` takes :func:`~repro.core.mapping.kp_count_for`'s
        default (four KPs per PE, rounded down to a count that tiles the
        grid); ``fields`` are the other :class:`EngineConfig` fields.
        Beyond what ``EngineConfig`` itself checks, the LP→KP→PE mapping
        is built once here, so a KP count that cannot tile the grid is a
        :class:`~repro.errors.ConfigurationError` before any engine,
        sink or worker exists.
        """
        n = self.cfg.n
        if n_kps is None:
            n_kps = kp_count_for(n, 4 * n_pes, n_pes)
        ecfg = EngineConfig(
            end_time=self.cfg.duration,
            n_pes=n_pes,
            n_kps=n_kps,
            seed=self.seed,
            **fields,
        )
        build_mapping(
            n * n, ecfg.n_kps, ecfg.n_pes, ecfg.mapping, grid=(n, n), seed=ecfg.seed
        )
        return ecfg

    def _time_warp_config(self, settings: dict) -> EngineConfig:
        ecfg = settings.pop("engine_config", None)
        if ecfg is None:
            return self.engine_config(**settings)
        return replace(ecfg, end_time=self.cfg.duration)

    def engine(self, kind: str = "sequential", *, model=None, **settings):
        """An unrun in-process engine of ``kind`` (one of :data:`ENGINES`).

        It runs a fresh model, or ``model`` when the caller keeps one
        (to read its delivery log afterwards), and has the fault plan's
        engine faults attached.  ``settings`` configure the kind's own
        engine: ``paranoid`` for the sequential one,
        :class:`~repro.core.conservative.ConservativeConfig` fields for
        the conservative kernel, and for Time Warp either a full
        ``engine_config`` (its ``end_time`` becomes this run's duration)
        or :meth:`engine_config`'s arguments.
        """
        if model is None:
            model = self.model()
        duration = self.cfg.duration
        if kind == "sequential":
            from repro.core.engine import SequentialEngine

            return SequentialEngine(model, duration, seed=self.seed, **settings)
        if kind == "conservative":
            from repro.core.conservative import (
                ConservativeConfig,
                ConservativeKernel,
            )

            engine = ConservativeKernel(
                model,
                ConservativeConfig(end_time=duration, seed=self.seed, **settings),
            )
        elif kind == "optimistic":
            from repro.core.optimistic import TimeWarpKernel

            engine = TimeWarpKernel(model, self._time_warp_config(settings))
        else:
            raise ConfigurationError(
                f"unknown engine {kind!r}; choose from {list(ENGINES)}"
            )
        faults = self._engine_faults()
        if faults is not None:
            engine.attach_faults(faults)
        return engine

    def run(
        self,
        kind: str = "sequential",
        *,
        model=None,
        tracer=None,
        metrics=None,
        spans=None,
        checkpointer=None,
        health=None,
        **settings,
    ) -> RunResult:
        """Run on ``kind``'s engine (default: the sequential oracle).

        ``settings`` are :meth:`engine`'s.  The hooks are attached in the
        order the checkpointer needs (it last, so a restore grafts onto
        the final object graph).  Time Warp with ``procs >= 2`` runs in
        worker processes (:mod:`repro.mp`) instead of in-process.
        """
        if model is None:
            model = self.model()
        if kind == "optimistic":
            ecfg = self._time_warp_config(settings)
            if ecfg.procs > 1:
                from repro.core.optimistic import run_optimistic

                return run_optimistic(
                    model, ecfg, tracer=tracer, metrics=metrics, spans=spans,
                    faults=self._engine_faults(), checkpointer=checkpointer,
                    health=health,
                )
            settings = {"engine_config": ecfg}
        engine = self.engine(kind, model=model, **settings)
        for attach, hook in (
            (engine.attach_tracer, tracer),
            (engine.attach_metrics, metrics),
            (engine.attach_spans, spans),
            (engine.attach_health, health),
            (engine.attach_checkpointer, checkpointer),
        ):
            if hook is not None:
                attach(hook)
        return engine.run()

    def run_parallel(
        self,
        n_pes: int = 4,
        n_kps: int | None = None,
        *,
        batch_size: int = 16,
        **kwargs,
    ) -> RunResult:
        """Run on the Time Warp engine.

        Either pass a full ``engine_config=`` (its ``end_time`` is
        overridden by the model duration) or let :meth:`engine_config`
        build one from ``n_pes`` / ``n_kps`` / ``batch_size`` plus keyword
        overrides (``mapping=...``, ``rollback=...``, ...).  The hooks
        are :meth:`run`'s.
        """
        if "engine_config" not in kwargs:
            kwargs.update(n_pes=n_pes, n_kps=n_kps, batch_size=batch_size)
        return self.run("optimistic", **kwargs)

    def validate_determinism(self, n_pes: int = 4, n_kps: int = 16) -> bool:
        """The report's Attachment-3 check: parallel results == sequential."""
        return (
            self.run().model_stats
            == self.run_parallel(n_pes=n_pes, n_kps=n_kps).model_stats
        )
