"""Scenario schema, validation, hashing and compilation."""

import json
import pathlib

import pytest

from repro.scenarios import (
    SCHEMA_ID,
    Scenario,
    ScenarioError,
    compile_scenario,
    load_scenario,
)

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios")
    .glob("*.json")
)


def _doc(**over):
    doc = {
        "schema": SCHEMA_ID,
        "name": "unit",
        "topology": {"kind": "torus", "n": 4},
        "traffic": {"model": "bernoulli", "injector_fraction": 1.0},
        "routing": {"policy": "busch"},
        "engine": {"duration": 8.0, "seed": 7},
    }
    doc.update(over)
    return doc


def test_examples_exist_and_compile():
    assert len(EXAMPLES) >= 6, "the issue requires >= 6 bundled scenarios"
    for path in EXAMPLES:
        compiled = compile_scenario(load_scenario(path))
        assert compiled.name
        assert len(compiled.scenario_hash()) == 16


def test_examples_cover_the_feature_matrix():
    scenarios = [load_scenario(p) for p in EXAMPLES]
    strategies = {
        s.traffic.get("strategy")
        for s in scenarios
        if s.traffic["model"] == "adversarial"
    }
    assert {"hotspot", "transpose", "tornado", "burst"} <= strategies
    assert any(s.traffic["model"] == "bernoulli" for s in scenarios)
    assert any(s.topology["kind"] == "mesh" for s in scenarios)
    assert any(s.routing.get("policy") == "two-choice" for s in scenarios)
    assert any(s.faults for s in scenarios)


def test_hash_is_content_addressed():
    a = Scenario.from_dict(_doc())
    b = Scenario.from_dict(_doc())
    c = Scenario.from_dict(_doc(engine={"duration": 9.0, "seed": 7}))
    assert a.scenario_hash() == b.scenario_hash()
    assert a.scenario_hash() != c.scenario_hash()


def test_rejects_wrong_schema_id():
    with pytest.raises(ScenarioError, match="schema"):
        Scenario.from_dict(_doc(schema="NOPE99"))


def test_rejects_unknown_top_level_key():
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_dict(_doc(extra={"x": 1}))


def test_rejects_unknown_policy():
    scenario = Scenario.from_dict(_doc(routing={"policy": "teleport"}))
    with pytest.raises(ScenarioError, match="policy"):
        scenario.validate()


def test_rejects_unknown_strategy():
    scenario = Scenario.from_dict(
        _doc(traffic={"model": "adversarial", "strategy": "meteor"})
    )
    with pytest.raises(ScenarioError, match="strategy"):
        scenario.validate()


def test_rejects_missing_duration():
    scenario = Scenario.from_dict(_doc(engine={"seed": 7}))
    with pytest.raises(ScenarioError, match="duration"):
        scenario.validate()


def test_rejects_the_deleted_executor_key():
    """``engine.executor`` is gone (the kernel picks the stepping path):
    a file still carrying it is refused by name, not ignored."""
    scenario = Scenario.from_dict(
        _doc(engine={"duration": 8.0, "executor": "vectorized"})
    )
    with pytest.raises(ScenarioError, match=r"unknown engine keys \['executor'\]"):
        scenario.validate()


def test_rejects_unknown_override():
    scenario = Scenario.from_dict(
        _doc(engine={"duration": 8.0, "overrides": {"warp_factor": 9}})
    )
    with pytest.raises(ScenarioError):
        scenario.validate()


def test_compile_resolves_script_traffic():
    doc = _doc(
        traffic={
            "model": "adversarial",
            "strategy": "script",
            "script": [
                {"step": 0, "node": 1, "dest": 5},
                {"step": 2, "node": 1, "dest": 9},
            ],
        }
    )
    compiled = compile_scenario(Scenario.from_dict(doc))
    assert compiled.sim.injection_plan is not None
    assert len(compiled.sim.injection_plan.entries) == 2


def test_compile_rejects_script_outside_topology():
    doc = _doc(
        topology={"kind": "torus", "n": 2},
        traffic={
            "model": "adversarial",
            "strategy": "script",
            "script": [{"step": 0, "node": 1, "dest": 77}],
        },
    )
    with pytest.raises(ScenarioError):
        compile_scenario(Scenario.from_dict(doc))


@pytest.mark.parametrize(
    "topology, faults, error",
    [("torus", {"generate": {"link_fail_rate": 0.1, "stalls": [
        {"pe": 1, "start_round": 3, "rounds": 4}]}}, None),
     ("torus", {"generate": {"link_fail_rate": 0.1, "stalls": [
        {"pe": 1, "rounds": 4}]}}, r"bad PE stall \{'pe': 1, 'rounds': 4\}"),
     ("mesh", {"events": [{"step": 5, "kind": "link_down", "node": 0,
                           "direction": 3}]}, r"no such link")],
    ids=["stall", "malformed-stall", "mesh-border-link"],
)
def test_compile_fault_plans(topology, faults, error):
    """``faults.generate.stalls`` entries become PE stall windows; a
    malformed entry, or a link the grid lacks, is a ScenarioError naming
    it when the scenario compiles, not a crash once the run starts."""
    from repro.faults import PEStall

    doc = _doc(topology={"kind": topology, "n": 4}, faults=faults)
    if error is not None:
        with pytest.raises(ScenarioError, match=error):
            compile_scenario(Scenario.from_dict(doc))
        return
    plan = compile_scenario(Scenario.from_dict(doc)).sim.fault_plan
    assert plan.stalls == (PEStall(1, 3, 4),)


def test_compile_default_kps_fit_odd_grids():
    """The KP default is resolved when a Time Warp engine is built, to a
    count whose block mapping tiles the grid."""
    doc = _doc(topology={"kind": "mesh", "n": 6})
    compiled = compile_scenario(Scenario.from_dict(doc))
    assert compiled.n_kps is None
    ecfg = compiled.sim.engine_config(**compiled.engine_settings("optimistic"))
    assert ecfg.n_kps >= ecfg.n_pes and 6 * 6 % ecfg.n_kps == 0


def test_grid_no_kp_count_tiles_compiles_and_runs_sequentially():
    """A 5x5 grid has no default KP count for 4 PEs; that refuses the
    Time Warp engine by name, not the scenario."""
    from repro.errors import ConfigurationError

    doc = _doc(topology={"kind": "torus", "n": 5})
    compiled = compile_scenario(Scenario.from_dict(doc))
    assert compiled.sim.run().model_stats["delivered"] > 0
    with pytest.raises(ConfigurationError, match="no usable KP count"):
        compiled.sim.engine_config(**compiled.engine_settings("optimistic"))


def test_compile_relative_fault_path(tmp_path):
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    plan = generate_plan(
        TorusTopology(4), duration=8.0, link_fail_rate=0.5, seed=5
    )
    (tmp_path / "plan.json").write_text(
        json.dumps(plan.to_dict(), sort_keys=True)
    )
    doc = _doc(faults="plan.json")
    (tmp_path / "scenario.json").write_text(json.dumps(doc, sort_keys=True))
    compiled = compile_scenario(load_scenario(tmp_path / "scenario.json"))
    assert compiled.sim.fault_plan is not None
    assert not compiled.sim.fault_plan.is_empty


def test_identity_covers_a_fault_plan_named_by_path(tmp_path):
    """Regenerating the plan file is a different experiment: the compiled
    identity changes with the plan's content, not only its path."""
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    def write_plan(rate, seed):
        plan = generate_plan(
            TorusTopology(4), duration=8.0, link_fail_rate=rate, seed=seed
        )
        plan.dump(tmp_path / "plan.json")

    (tmp_path / "scenario.json").write_text(json.dumps(_doc(faults="plan.json")))
    write_plan(0.1, 3)
    before = compile_scenario(load_scenario(tmp_path / "scenario.json"))
    write_plan(0.4, 11)
    after = compile_scenario(load_scenario(tmp_path / "scenario.json"))
    assert before.scenario.scenario_hash() == after.scenario.scenario_hash()
    assert before.scenario_hash() != after.scenario_hash()
    # Inline and generated plans keep the document's own hash.
    inline = compile_scenario(Scenario.from_dict(_doc()))
    assert inline.scenario_hash() == inline.scenario.scenario_hash()


def test_scenario_json_roundtrip(tmp_path):
    scenario = Scenario.from_dict(_doc())
    path = tmp_path / "unit.json"
    path.write_text(scenario.to_json())
    again = load_scenario(path)
    assert again.scenario_hash() == scenario.scenario_hash()
