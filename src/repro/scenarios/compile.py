"""Compile a :class:`~repro.scenarios.spec.Scenario` into runnable parts.

The compiler is the one place scenario JSON meets real objects: the
topology registry, :class:`~repro.hotpotato.config.HotPotatoConfig`, the
policy registry, the adversary expansion and the fault-plan loader.  The
result — a :class:`CompiledScenario` — builds fresh
:class:`~repro.hotpotato.model.HotPotatoModel` populations on demand
(models are single-use) and knows how to run itself on any of the three
engines through the same convenience wrappers the CLIs use, so a
scenario is guaranteed to mean the same thing everywhere it is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.policies import make_policy
from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import RoutingPolicy
from repro.net import TOPOLOGIES
from repro.scenarios.adversary import (
    DEFAULT_ADVERSARY_SEED,
    InjectionEvent,
    InjectionPlan,
    generate_injection_plan,
)
from repro.scenarios.spec import Scenario, ScenarioError

__all__ = ["CompiledScenario", "compile_scenario"]

#: Engines a compiled scenario can run on.
ENGINES = ("sequential", "conservative", "optimistic")


@dataclass
class CompiledScenario:
    """A scenario resolved into config, policy, plans and run defaults."""

    scenario: Scenario
    cfg: HotPotatoConfig
    policy: RoutingPolicy
    injection_plan: InjectionPlan | None
    fault_plan: object
    duration: float
    seed: int
    #: Parallel-engine defaults from the scenario's engine section.
    n_pes: int
    n_kps: int
    batch_size: int
    window: float | None

    @property
    def name(self) -> str:
        """The scenario's declared name."""
        return self.scenario.name

    def scenario_hash(self) -> str:
        """Content hash identifying the scenario (see ``Scenario``)."""
        return self.scenario.scenario_hash()

    # ------------------------------------------------------------------
    def build_model(self, *, delivery_log: bool | None = None) -> HotPotatoModel:
        """Fresh model population (models are single-use per run)."""
        cfg = self.cfg
        if delivery_log is not None and delivery_log != cfg.delivery_log:
            from dataclasses import replace

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

    def run(
        self,
        engine: str = "sequential",
        *,
        seed: int | None = None,
        n_pes: int | None = None,
        n_kps: int | None = None,
        batch_size: int | None = None,
        window: float | None = None,
        tracer=None,
        metrics=None,
        spans=None,
        delivery_log: bool | None = None,
        model: HotPotatoModel | None = None,
    ):
        """Run the scenario on one engine; returns the RunResult.

        Keyword arguments override the scenario's engine-section
        defaults; pass ``model`` to run a population you built (and kept
        a reference to) yourself — e.g. to read its delivery log after.
        """
        if engine not in ENGINES:
            raise ScenarioError(
                f"unknown engine {engine!r}; choose from {list(ENGINES)}"
            )
        if model is None:
            model = self.build_model(delivery_log=delivery_log)
        seed = self.seed if seed is None else seed
        if engine == "sequential":
            from repro.core.engine import run_sequential

            return run_sequential(
                model,
                self.duration,
                seed=seed,
                tracer=tracer,
                metrics=metrics,
                spans=spans,
            )
        faults = self._engine_faults()
        if engine == "conservative":
            from repro.core.conservative import (
                ConservativeConfig,
                run_conservative,
            )

            ccfg = ConservativeConfig(
                end_time=self.duration,
                n_pes=self.n_pes if n_pes is None else n_pes,
                lookahead=model.lookahead,
                seed=seed,
            )
            return run_conservative(
                model, ccfg, tracer=tracer, metrics=metrics, spans=spans,
                faults=faults,
            )
        from repro.core.config import EngineConfig
        from repro.core.optimistic import run_optimistic

        pes = self.n_pes if n_pes is None else n_pes
        ecfg = EngineConfig(
            end_time=self.duration,
            n_pes=pes,
            n_kps=(self.n_kps if n_kps is None else n_kps) or 4 * pes,
            batch_size=self.batch_size if batch_size is None else batch_size,
            window=self.window if window is None else window,
            seed=seed,
        )
        return run_optimistic(
            model, ecfg, tracer=tracer, metrics=metrics, spans=spans,
            faults=faults,
        )


# ----------------------------------------------------------------------
def _default_kp_count(n: int, requested: int, n_pes: int) -> int:
    """Largest KP count <= ``requested`` whose block mapping tiles n×n.

    Scenarios name arbitrary grid sizes (a 6×6 mesh, say), where the
    stock ``4 * n_pes`` KPs may not tile; rather than make every
    scenario author pick a divisor by hand, round down to one that
    fits — exactly the rule the experiment sweeps use.
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
    raise ScenarioError(
        f"no usable KP count <= {requested} for n={n}, n_pes={n_pes}; "
        "set engine.n_kps (and possibly engine.n_pes) explicitly"
    )


def _compile_traffic(scenario: Scenario, n: int, topo_kind: str, duration: float):
    """Resolve the traffic section: (injector_fraction, InjectionPlan|None)."""
    traffic = scenario.traffic
    if traffic["model"] == "bernoulli":
        return float(traffic.get("injector_fraction", 1.0)), None
    strategy = traffic["strategy"]
    if strategy == "script":
        plan = InjectionPlan(
            entries=tuple(
                InjectionEvent.from_dict(e) for e in traffic["script"]
            ),
            strategy="script",
            rate=float(traffic.get("rate", 1.0)),
            seed=int(traffic.get("seed", DEFAULT_ADVERSARY_SEED)),
        )
    else:
        topo = TOPOLOGIES[topo_kind](n)
        plan = generate_injection_plan(
            topo,
            strategy=strategy,
            duration=duration,
            rate=float(traffic.get("rate", 1.0)),
            seed=int(traffic.get("seed", DEFAULT_ADVERSARY_SEED)),
            hotspots=int(traffic.get("hotspots", 1)),
            burst_len=int(traffic.get("burst_len", 8)),
            burst_gap=int(traffic.get("burst_gap", 8)),
        )
    # Injectors are exactly the scripted routers, so the fraction is moot;
    # keep the config default for config-marker stability.
    return 1.0, plan


def _compile_faults(scenario: Scenario, n: int, topo_kind: str, duration: float):
    """Resolve the faults section into a FaultPlan (or None)."""
    doc = scenario.faults
    if doc is None:
        return None
    from repro.faults import FaultPlan, FaultPlanError, generate_plan, load_plan

    try:
        if isinstance(doc, str):
            path = doc
            if scenario.source is not None:
                path = str((scenario.source.parent / doc).resolve())
            return load_plan(path)
        if "generate" in doc:
            spec = dict(doc["generate"])
            topo = TOPOLOGIES[topo_kind](n)
            return generate_plan(topo, duration=duration, **spec)
        return FaultPlan.from_dict(doc)
    except FaultPlanError as exc:
        raise ScenarioError(
            f"scenario {scenario.name!r}: bad fault plan: {exc}"
        ) from None
    except (OSError, TypeError, ValueError) as exc:
        raise ScenarioError(
            f"scenario {scenario.name!r}: cannot resolve faults: {exc}"
        ) from None


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Resolve a validated scenario into a :class:`CompiledScenario`."""
    scenario.validate()
    topo_kind = scenario.topology["kind"]
    n = int(scenario.topology["n"])
    eng = scenario.engine
    duration = float(eng["duration"])
    seed = int(eng.get("seed", 0x5EED))
    injector_fraction, injection_plan = _compile_traffic(
        scenario, n, topo_kind, duration
    )
    fault_plan = _compile_faults(scenario, n, topo_kind, duration)
    overrides = dict(eng.get("overrides", {}))
    try:
        cfg = HotPotatoConfig(
            n=n,
            duration=duration,
            topology=topo_kind,
            injector_fraction=injector_fraction,
            **overrides,
        )
    except ConfigurationError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(
            f"scenario {scenario.name!r}: bad configuration: {exc}"
        ) from None
    num = cfg.num_routers
    try:
        if injection_plan is not None:
            injection_plan.validate(num_nodes=num)
        if fault_plan is not None:
            fault_plan.validate(num_nodes=num)
    except ScenarioError:
        raise
    except ConfigurationError as exc:
        raise ScenarioError(f"scenario {scenario.name!r}: {exc}") from None
    policy = make_policy(scenario.routing.get("policy", "busch"))
    n_pes = int(eng.get("n_pes", 4))
    return CompiledScenario(
        scenario=scenario,
        cfg=cfg,
        policy=policy,
        injection_plan=injection_plan,
        fault_plan=fault_plan,
        duration=duration,
        seed=seed,
        n_pes=n_pes,
        n_kps=int(eng.get("n_kps", 0))
        or _default_kp_count(n, 4 * n_pes, n_pes),
        batch_size=int(eng.get("batch_size", 16)),
        window=eng.get("window"),
    )
