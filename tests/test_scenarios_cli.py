"""Scenario CLI, observability wiring, and supervised sweep integration."""

import json
import pathlib

import pytest

from repro.scenarios.__main__ import main as scenarios_main

EXAMPLES_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"
)
HOTSPOT = str(EXAMPLES_DIR / "adversarial_hotspot.json")
FAULTED = str(EXAMPLES_DIR / "adversarial_faulted.json")


def _tiny(tmp_path, **over):
    doc = {
        "schema": "RPSCEN01",
        "name": "tiny",
        "topology": {"kind": "torus", "n": 4},
        "traffic": {
            "model": "adversarial", "strategy": "hotspot",
            "rate": 0.5, "seed": 9,
        },
        "routing": {"policy": "busch"},
        "engine": {"duration": 10.0, "seed": 7},
    }
    doc.update(over)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ----------------------------------------------------------------------
# python -m repro.scenarios
# ----------------------------------------------------------------------
def test_cli_validate_all_examples(capsys):
    files = sorted(str(p) for p in EXAMPLES_DIR.glob("*.json"))
    assert scenarios_main(["validate", *files]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "valid" in out


def test_cli_validate_reports_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "RPSCEN01", "name": "x"}))
    assert scenarios_main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_show(capsys):
    assert scenarios_main(["show", HOTSPOT]) == 0
    out = capsys.readouterr().out
    assert "adversarial-hotspot" in out
    assert "adversarial/hotspot" in out
    assert "routing  : busch" in out


def test_cli_run_sequential_with_cross_engine_check(tmp_path, capsys):
    path = _tiny(tmp_path)
    assert scenarios_main(["run", path, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "cross-engine check : IDENTICAL" in out
    assert "adversary" in out


@pytest.mark.parametrize("engine", ["cons", "opt"])
def test_cli_run_parallel_matches_oracle(tmp_path, capsys, engine):
    path = _tiny(tmp_path)
    assert scenarios_main(
        ["run", path, "--engine", engine, "--validate"]
    ) == 0
    assert "oracle check       : IDENTICAL" in capsys.readouterr().out


def test_cli_run_records_adversary_lines(tmp_path, capsys):
    from repro.obs.recorder import SCHEMA_VERSION, load_recording

    path = _tiny(tmp_path)
    out_jsonl = tmp_path / "run.jsonl"
    assert scenarios_main(
        ["run", path, "--trace-out", str(out_jsonl)]
    ) == 0
    rec = load_recording(out_jsonl)
    assert rec.header["schema"] == SCHEMA_VERSION
    assert rec.header["scenario"] == "tiny"
    assert rec.header["scenario_hash"]
    assert rec.adversary, "scripted injections must be logged up front"
    fields = set(rec.adversary[0])
    assert {"step", "node", "dest"} <= fields


def test_cli_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    assert scenarios_main(["show", str(bad)]) == 2


# ----------------------------------------------------------------------
# experiments integration
# ----------------------------------------------------------------------
def test_run_point_of_a_scenario_file_reports_percentiles(tmp_path):
    from repro.experiments.common import run_point

    ms = run_point("seq", _tiny(tmp_path))["model_stats"]
    assert ms["latency_p50"] <= ms["latency_p95"] <= ms["latency_p99"]
    assert ms["latency_p99"] > 0


def test_scenario_compare_experiment(tmp_path):
    from repro.experiments.common import SweepParams
    from repro.experiments.scenario_compare import run

    table = run(SweepParams(scenarios=(_tiny(tmp_path),)))
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert row["scenario"] == "tiny"
    assert row["par=seq"] is True
    assert row["delivered"] > 0


def test_pointworker_refuses_changed_scenario(tmp_path):
    from repro.experiments.pointworker import run_spec

    spec = {
        "kind": "seq",
        "scenario": {"path": _tiny(tmp_path), "hash": "0000000000000000"},
    }
    with pytest.raises(ValueError, match="refusing"):
        run_spec(spec, tmp_path / "hb", tmp_path / "ckpt")


def test_supervised_scenario_sweep_resumes(tmp_path):
    from repro.experiments.common import (
        SweepParams,
        set_supervisor,
    )
    from repro.experiments.scenario_compare import run
    from repro.experiments.supervisor import Supervisor, SupervisorConfig

    params = SweepParams(scenarios=(_tiny(tmp_path),))
    out_dir = tmp_path / "sweep"
    sup = Supervisor(SupervisorConfig(out_dir=out_dir))
    set_supervisor(sup)
    try:
        first = run(params)
    finally:
        set_supervisor(None)
        sup.close()

    manifest = (out_dir / "manifest.jsonl").read_text()
    assert '"scenario"' in manifest and '"hash"' in manifest

    sup = Supervisor(SupervisorConfig(out_dir=out_dir, resume=True))
    set_supervisor(sup)
    try:
        again = run(params)
    finally:
        set_supervisor(None)
        sup.close()
    assert again.rows == first.rows


def test_supervised_sweep_refuses_a_regenerated_fault_plan(tmp_path, capsys):
    """A scenario naming its fault plan by path: regenerating the plan
    after the sweep ran is a different experiment, and ``--resume``
    refuses it by name instead of serving the stored results."""
    from repro.experiments.runner import main
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    def write_plan(rate, seed):
        generate_plan(
            TorusTopology(4), duration=10.0, link_fail_rate=rate, seed=seed
        ).dump(tmp_path / "plan.json")

    write_plan(0.1, 3)
    scenario = _tiny(tmp_path, faults="plan.json")
    out_dir = tmp_path / "sweep"
    assert main(["scenarios", "--scenario", scenario, "--out-dir", str(out_dir)]) == 0
    write_plan(0.4, 11)
    capsys.readouterr()
    assert main(["--resume", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert scenario in err and "refusing to resume" in err
