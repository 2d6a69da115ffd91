"""Declarative scenarios: data-driven workloads for the three engines.

A *scenario* is a schema-versioned JSON document (``RPSCEN01``, see
:mod:`repro.scenarios.spec`) declaring everything a run needs — topology,
traffic model (Bernoulli or a rate-bounded adversary from
:mod:`repro.scenarios.adversary`), routing policy, engine parameters and
an optional fault plan.  :func:`compile_scenario` turns one into a
:class:`CompiledScenario` holding the
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` it declares.
Every entry point compiles through it: ``python -m repro.scenarios``
validates, inspects and runs scenario files; ``repro.hotpotato`` compiles
``--scenario FILE`` or its workload flags (via :func:`report_scenario`);
sweep points and chaos episodes are scenario documents.  Bundled examples
live in ``examples/scenarios/``; the format reference is
``docs/SCENARIOS.md``.
"""

from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.spec import (
    SCHEMA_ID,
    Scenario,
    ScenarioError,
    load_scenario,
    report_scenario,
)

#: Names served from :mod:`repro.scenarios.adversary` on first use, so a
#: Bernoulli run never imports the adversary.
_ADVERSARY = (
    "DEFAULT_ADVERSARY_SEED",
    "InjectionEvent",
    "InjectionPlan",
    "InjectionPlanError",
    "STRATEGIES",
    "generate_injection_plan",
    "load_injection_plan",
)

__all__ = [
    "CompiledScenario",
    "SCHEMA_ID",
    "Scenario",
    "ScenarioError",
    "compile_scenario",
    "load_scenario",
    "report_scenario",
    *_ADVERSARY,
]


def __getattr__(name: str):
    if name in _ADVERSARY:
        from repro.scenarios import adversary

        return getattr(adversary, name)
    raise AttributeError(f"module 'repro.scenarios' has no attribute {name!r}")
