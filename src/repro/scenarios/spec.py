"""The declarative scenario format: schema ``RPSCEN01``.

A scenario file is one JSON object declaring a complete, reproducible
experiment — topology, traffic, routing policy, engine parameters and an
optional fault plan — with no code:

.. code-block:: json

    {
      "schema": "RPSCEN01",
      "name": "hotspot-stress",
      "description": "Rate-0.5 hotspot adversary on an 8x8 torus.",
      "topology": {"kind": "torus", "n": 8},
      "traffic": {"model": "adversarial", "strategy": "hotspot",
                  "rate": 0.5, "hotspots": 2, "seed": 2901},
      "routing": {"policy": "busch"},
      "engine": {"duration": 60.0, "seed": 24141},
      "faults": null
    }

Sections
--------
``topology``
    ``kind`` is a name from :data:`repro.net.TOPOLOGIES` ("torus" or
    "mesh"); ``n`` is the side of the N×N grid.
``traffic``
    ``model`` is ``"bernoulli"`` (the stock injection application;
    optional ``injector_fraction``, default 1.0) or ``"adversarial"``
    (a rate-bounded adversary; ``strategy`` from
    :data:`repro.scenarios.adversary.STRATEGIES` plus strategy knobs
    ``rate``/``seed``/``hotspots``/``burst_len``/``burst_gap``, or
    ``"script"`` with an explicit ``script`` entry list).
``routing``
    ``policy`` is a name from :data:`repro.baselines.POLICIES`
    ("busch", "greedy", "random-deflection", "two-choice").
``engine``
    ``duration`` (required) and ``seed`` for the run, plus an optional
    ``overrides`` object of :class:`~repro.hotpotato.config.
    HotPotatoConfig` fields (``arrival_jitter``, ``initial_fill``,
    ``heartbeat``, ...) and optional parallel-engine defaults
    ``n_pes``/``n_kps``/``batch_size``/``window``.
``faults``
    ``null``, a path to a :mod:`repro.faults` plan file (relative paths
    resolve against the scenario file), an inline plan object, or
    ``{"generate": {...}}`` with :func:`repro.faults.generate_plan`
    keyword arguments.

Identity
--------
:meth:`Scenario.scenario_hash` is the sha256 of the scenario's canonical
JSON (sorted keys, ``source`` excluded), truncated to 16 hex digits —
the same convention as the sweep supervisor's ``point_id``.  What runs
is pinned by the *compiled* identity,
:meth:`~repro.scenarios.compile.CompiledScenario.scenario_hash`, which
hashes a fault plan named by path by the plan's content.  The CLI's
checkpoint marker, the sweep manifest and the point worker all pin that
one, so a ``--resume`` refuses a scenario *or* plan file that changed.
The hash is computed only where it is written, and ``hashlib`` imported
only then: a plain run never loads OpenSSL's libcrypto.

:func:`report_scenario` writes the document of the report's program
parameters (§3.3.1); ``repro.hotpotato``'s flags and every experiment's
sweep points compile through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

from repro.errors import ConfigurationError
from repro.net import TOPOLOGIES

__all__ = [
    "SCHEMA_ID", "Scenario", "ScenarioError", "load_scenario", "report_scenario",
]

#: Schema identifier every scenario file must carry (versioned suffix).
SCHEMA_ID = "RPSCEN01"

#: Traffic models a scenario may declare.
TRAFFIC_MODELS = ("bernoulli", "adversarial")

#: HotPotatoConfig fields a scenario's ``engine.overrides`` may set.
#: Everything the scenario's own sections define (n, duration, topology,
#: injector_fraction) is deliberately excluded — one knob, one place.
CONFIG_OVERRIDES = (
    "arrival_jitter",
    "jitter_slots",
    "initial_fill",
    "absorb_sleeping",
    "sleeping_upgrade_scale",
    "active_upgrade_scale",
    "heartbeat",
    "exact_injectors",
    "delivery_log",
    "layout_seed",
)

#: Parallel-engine defaults the ``engine`` section may carry.
ENGINE_KEYS = (
    "duration",
    "seed",
    "overrides",
    "n_pes",
    "n_kps",
    "batch_size",
    "window",
)


class ScenarioError(ConfigurationError):
    """A scenario file is malformed or references unknown components."""


@dataclass(frozen=True)
class Scenario:
    """One parsed (but not yet compiled) scenario declaration."""

    name: str
    topology: dict
    traffic: dict
    routing: dict
    engine: dict
    description: str = ""
    #: None, a plan-file path string, an inline plan dict, or
    #: ``{"generate": {...}}``.
    faults: object = None
    #: Where the scenario was loaded from (resolves relative fault
    #: paths); not part of the scenario's identity.
    source: Path | None = field(default=None, compare=False)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any structural problem.

        Validation here is *referential* — names must resolve against
        the topology/policy/strategy registries, required keys must be
        present and well-typed.  Value-range checking (n >= 2, rate in
        [0,1], ...) happens when the scenario is compiled into real
        config objects, which already own those rules.
        """
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("scenario needs a non-empty string 'name'")
        for section, doc in (
            ("topology", self.topology),
            ("traffic", self.traffic),
            ("routing", self.routing),
            ("engine", self.engine),
        ):
            if not isinstance(doc, dict):
                raise ScenarioError(
                    f"scenario {self.name!r}: section {section!r} must be "
                    f"an object, got {type(doc).__name__}"
                )
        kind = self.topology.get("kind")
        if kind not in TOPOLOGIES:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown topology kind {kind!r}; "
                f"choose from {sorted(TOPOLOGIES)}"
            )
        if "n" not in self.topology:
            raise ScenarioError(
                f"scenario {self.name!r}: topology needs 'n' (grid side)"
            )
        model = self.traffic.get("model")
        if model not in TRAFFIC_MODELS:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown traffic model {model!r}; "
                f"choose from {list(TRAFFIC_MODELS)}"
            )
        if model == "adversarial":
            from repro.scenarios.adversary import STRATEGIES

            strategy = self.traffic.get("strategy")
            if strategy == "script":
                script = self.traffic.get("script")
                if not isinstance(script, list) or not script:
                    raise ScenarioError(
                        f"scenario {self.name!r}: script traffic needs a "
                        "non-empty 'script' entry list"
                    )
            elif strategy not in STRATEGIES:
                raise ScenarioError(
                    f"scenario {self.name!r}: unknown adversary strategy "
                    f"{strategy!r}; choose from {list(STRATEGIES) + ['script']}"
                )
        policy = self.routing.get("policy", "busch")
        if policy != "busch":
            # The baselines load only for a run that routes with one.
            from repro.baselines.policies import POLICIES

            if policy not in POLICIES:
                raise ScenarioError(
                    f"scenario {self.name!r}: unknown routing policy "
                    f"{policy!r}; choose from {sorted(POLICIES)}"
                )
        if "duration" not in self.engine:
            raise ScenarioError(
                f"scenario {self.name!r}: engine needs 'duration'"
            )
        unknown = set(self.engine) - set(ENGINE_KEYS)
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown engine keys "
                f"{sorted(unknown)}; allowed: {list(ENGINE_KEYS)}"
            )
        overrides = self.engine.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ScenarioError(
                f"scenario {self.name!r}: engine.overrides must be an object"
            )
        bad = set(overrides) - set(CONFIG_OVERRIDES)
        if bad:
            raise ScenarioError(
                f"scenario {self.name!r}: overrides {sorted(bad)} are not "
                f"overridable; allowed: {list(CONFIG_OVERRIDES)}"
            )
        if self.faults is not None and not isinstance(self.faults, (str, dict)):
            raise ScenarioError(
                f"scenario {self.name!r}: 'faults' must be null, a plan "
                "path, an inline plan object, or {\"generate\": {...}}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form (round-trips through :meth:`from_dict`)."""
        return {
            "schema": SCHEMA_ID,
            "name": self.name,
            "description": self.description,
            "topology": self.topology,
            "traffic": self.traffic,
            "routing": self.routing,
            "engine": self.engine,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, doc: Mapping, source: Path | None = None) -> "Scenario":
        schema = doc.get("schema")
        if schema != SCHEMA_ID:
            raise ScenarioError(
                f"scenario schema {schema!r} is not the supported "
                f"{SCHEMA_ID!r}"
            )
        known = {
            "schema", "name", "description", "topology", "traffic",
            "routing", "engine", "faults",
        }
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        return cls(
            name=doc.get("name", ""),
            description=doc.get("description", ""),
            topology=dict(doc.get("topology", {})),
            traffic=dict(doc.get("traffic", {})),
            routing=dict(doc.get("routing", {"policy": "busch"})),
            engine=dict(doc.get("engine", {})),
            faults=doc.get("faults"),
            source=source,
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys; hashing input)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def scenario_hash(self) -> str:
        """16-hex-digit identity of the scenario content (see module doc)."""
        import hashlib  # maps libcrypto: only a run that writes the hash pays

        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_scenario(source: str | Path | IO[str]) -> Scenario:
    """Load and validate a scenario from a JSON path or open stream."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        text = path.read_text()
    else:
        path = None
        text = source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path or '<stream>'}: not valid JSON ({exc})"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path or '<stream>'}: scenario must be an object")
    scenario = Scenario.from_dict(doc, source=path)
    scenario.validate()
    return scenario


def report_scenario(
    n: int,
    duration: float,
    *,
    injector_fraction: float = 1.0,
    topology: str = "torus",
    policy: str = "busch",
    overrides: Mapping | None = None,
    seed: int = 0x5EED,
    faults=None,
    traffic: dict | None = None,
    name: str = "hotpotato",
) -> Scenario:
    """The scenario of the report's program parameters (§3.3.1).

    N, the duration and ``probability_i`` (as ``injector_fraction``)
    plus the topology, routing policy, seed, ``engine.overrides`` (the
    report's ``absorb_sleeping``, ``initial_fill``, ``heartbeat``, ...;
    see :data:`CONFIG_OVERRIDES`) and an optional ``faults`` section in
    the scenario format; ``traffic`` replaces the Bernoulli section (an
    adversary, say).  The PE count is the engine's.
    """
    engine: dict = {"duration": float(duration), "seed": int(seed)}
    if overrides:
        engine["overrides"] = dict(overrides)
    return Scenario(
        name=name,
        topology={"kind": topology, "n": int(n)},
        traffic=traffic or {
            "model": "bernoulli", "injector_fraction": float(injector_fraction),
        },
        routing={"policy": policy},
        engine=engine,
        faults=faults,
    )
