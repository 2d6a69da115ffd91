"""Compile a :class:`~repro.scenarios.spec.Scenario` into the run it declares.

The compiler is the one place scenario JSON meets real objects: the
topology registry, :class:`~repro.hotpotato.config.HotPotatoConfig`, the
policy registry, the adversary expansion and the fault-plan loader.  The
result — a :class:`CompiledScenario` — holds the
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` the scenario
declares (the one builder of its models and engines), the scenario's
identity and the engine defaults from its ``engine`` section.  Every
entry point compiles through here, ``repro.hotpotato``'s flags included,
so a run means the same thing everywhere it is declared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.hotpotato.simulation import HotPotatoSimulation
from repro.net import TOPOLOGIES
from repro.scenarios.spec import Scenario, ScenarioError

__all__ = ["CompiledScenario", "compile_scenario"]


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario resolved into its simulation and engine defaults."""

    scenario: Scenario
    #: The run the scenario declares: config, policy and plans.
    sim: HotPotatoSimulation
    #: Parallel-engine defaults from the scenario's engine section;
    #: ``n_kps=None`` is resolved when a Time Warp engine is built.
    n_pes: int
    n_kps: int | None
    batch_size: int
    window: float | None

    @property
    def name(self) -> str:
        """The scenario's declared name."""
        return self.scenario.name

    def scenario_hash(self) -> str:
        """16-hex-digit identity of what this scenario runs.

        The scenario's content hash, except that a fault plan named by
        path counts by the plan's content: regenerating the file is a
        different experiment, and every resume check pins this value.
        """
        scenario = self.scenario
        if isinstance(scenario.faults, str):
            scenario = replace(scenario, faults=self.sim.fault_plan.to_dict())
        return scenario.scenario_hash()

    def engine_settings(
        self,
        kind: str,
        *,
        n_pes: int | None = None,
        n_kps: int | None = None,
        batch_size: int | None = None,
    ) -> dict:
        """The settings :meth:`HotPotatoSimulation.engine` takes for
        ``kind``: the values given, and this scenario's defaults for the
        rest."""
        if kind == "sequential":
            return {}
        settings = {"n_pes": self.n_pes if n_pes is None else n_pes}
        if kind == "optimistic":
            settings.update(
                n_kps=self.n_kps if n_kps is None else n_kps,
                batch_size=self.batch_size if batch_size is None else batch_size,
                window=self.window,
            )
        return settings


# ----------------------------------------------------------------------
def _compile_traffic(scenario: Scenario, n: int, topo_kind: str, duration: float):
    """Resolve the traffic section: (injector_fraction, InjectionPlan|None)."""
    traffic = scenario.traffic
    if traffic["model"] == "bernoulli":
        return float(traffic.get("injector_fraction", 1.0)), None
    from repro.scenarios.adversary import (
        DEFAULT_ADVERSARY_SEED,
        InjectionEvent,
        InjectionPlan,
        generate_injection_plan,
    )

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
    from repro.faults import FaultPlan, FaultPlanError, PEStall, generate_plan, load_plan

    try:
        if isinstance(doc, str):
            path = doc
            if scenario.source is not None:
                path = str((scenario.source.parent / doc).resolve())
            return load_plan(path)
        if "generate" in doc:
            spec = dict(doc["generate"])
            if "stalls" in spec:
                spec["stalls"] = [PEStall.from_dict(s) for s in spec["stalls"]]
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


def _policy(name: str):
    """The routing policy a scenario names (the baselines load on demand)."""
    if name == "busch":
        return BuschHotPotatoPolicy()
    from repro.baselines.policies import make_policy

    return make_policy(name)


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Resolve a validated scenario into a :class:`CompiledScenario`."""
    scenario.validate()
    topo_kind = scenario.topology["kind"]
    n = int(scenario.topology["n"])
    eng = scenario.engine
    duration = float(eng["duration"])
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
            # The model's own compile, done here so a link the grid lacks
            # (a mesh border) is refused before any run starts.
            from repro.faults.views import compile_node_views, static_failed_links

            compile_node_views(fault_plan, TOPOLOGIES[topo_kind](
                n, failed_links=static_failed_links(fault_plan)
            ))
    except ScenarioError:
        raise
    except ConfigurationError as exc:
        raise ScenarioError(f"scenario {scenario.name!r}: {exc}") from None
    return CompiledScenario(
        scenario=scenario,
        sim=HotPotatoSimulation(
            cfg,
            _policy(scenario.routing.get("policy", "busch")),
            seed=int(eng.get("seed", 0x5EED)),
            fault_plan=fault_plan,
            injection_plan=injection_plan,
        ),
        n_pes=int(eng.get("n_pes", 4)),
        n_kps=int(eng["n_kps"]) if eng.get("n_kps") else None,
        batch_size=int(eng.get("batch_size", 16)),
        window=eng.get("window"),
    )
