"""Resume integrity: a bare ``--resume`` re-compiles every journaled input.

Every point is a scenario.  The manifest records the compiled identity of
each scenario that reads a file — a scenario file, or a fault plan named
by path, whose *content* the identity covers — at launch time.  Before a
resumed sweep serves *any* point — including ``done`` points whose
results would otherwise come straight off disk — the supervisor
re-verifies those identities and refuses with an error naming the
offending file if anything drifted.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ResumeIntegrityError
from repro.experiments.pointworker import point_scenario
from repro.experiments.supervisor import Supervisor, SupervisorConfig
from repro.faults import generate_plan
from repro.scenarios import compile_scenario, load_scenario, report_scenario
from repro.net import TorusTopology

SCENARIO_SRC = Path(__file__).resolve().parent.parent / (
    "examples/scenarios/baseline_uniform.json"
)


def _supervisor(out_dir, *, resume=False) -> Supervisor:
    return Supervisor(SupervisorConfig(out_dir=out_dir, resume=resume))


def _plan_file(tmp_path) -> Path:
    plan = generate_plan(
        TorusTopology(4), duration=8.0, link_fail_rate=0.05, seed=3
    )
    path = tmp_path / "plan.json"
    plan.dump(path)
    return path


def _faulted_spec(plan_path) -> dict:
    """An inline-scenario point naming its fault plan by path."""
    doc = report_scenario(4, 8.0, seed=7, faults=str(plan_path)).to_dict()
    return {"kind": "opt", "scenario": doc}


def _scenario_file(tmp_path) -> tuple[Path, str]:
    path = tmp_path / "scenario.json"
    shutil.copy(SCENARIO_SRC, path)
    digest = compile_scenario(load_scenario(path)).scenario_hash()
    return path, digest


def test_empty_manifest_verifies_nothing(tmp_path):
    sup = _supervisor(tmp_path / "sweep")
    try:
        assert sup.verify_resume_integrity() == 0
    finally:
        sup.close()


def test_fault_plan_round_trip_and_tamper(tmp_path):
    plan_path = _plan_file(tmp_path)
    spec = _faulted_spec(plan_path)

    sup = _supervisor(tmp_path / "sweep")
    try:
        # The identity the supervisor journals alongside `started` records.
        want = point_scenario(spec).scenario_hash()
        sup._journal(point="p1", status="started", spec=spec, scenario_hash=want)
        assert sup.verify_resume_integrity() == 1

        # Regenerate the plan: the resume must refuse and name the file.
        plan = generate_plan(
            TorusTopology(4), duration=8.0, link_fail_rate=0.2, seed=11
        )
        plan.dump(plan_path)
        with pytest.raises(ResumeIntegrityError) as exc_info:
            sup.verify_resume_integrity()
        msg = str(exc_info.value)
        assert str(plan_path) in msg
        assert want in msg  # says what the manifest recorded

        # A vanished file is refused too, with a distinct explanation.
        plan_path.unlink()
        with pytest.raises(ResumeIntegrityError, match="no longer be loaded"):
            sup.verify_resume_integrity()
    finally:
        sup.close()


def test_scenario_round_trip_and_tamper(tmp_path):
    scen_path, digest = _scenario_file(tmp_path)
    spec = {"kind": "opt", "scenario": {"path": str(scen_path), "hash": digest}}

    sup = _supervisor(tmp_path / "sweep")
    try:
        sup._journal(point="p1", status="done", spec=spec)
        assert sup.verify_resume_integrity() == 1

        # Change a semantically meaningful field: content hash drifts.
        doc = json.loads(scen_path.read_text())
        doc["traffic"]["injector_fraction"] = 0.5
        scen_path.write_text(json.dumps(doc))
        with pytest.raises(ResumeIntegrityError) as exc_info:
            sup.verify_resume_integrity()
        msg = str(exc_info.value)
        assert str(scen_path) in msg
        assert digest in msg

        # A scenario that no longer even loads is refused as well.
        scen_path.write_text("{not json")
        with pytest.raises(ResumeIntegrityError, match="no longer be loaded"):
            sup.verify_resume_integrity()
    finally:
        sup.close()


def test_latest_journal_record_wins(tmp_path):
    """Re-journaling a point (a retry) updates the expected hash."""
    plan_path = _plan_file(tmp_path)
    spec = _faulted_spec(plan_path)
    sup = _supervisor(tmp_path / "sweep")
    try:
        sup._journal(point="p1", status="started", spec=spec,
                     scenario_hash="0" * 16)  # stale hash from a dead attempt
        want = point_scenario(spec).scenario_hash()
        sup._journal(point="p1", status="started", spec=spec, scenario_hash=want)
        assert sup.verify_resume_integrity() == 1
    finally:
        sup.close()


def test_supervisor_policy_is_a_recovery_policy(tmp_path):
    """Retry/backoff ride the shared RecoveryPolicy."""
    sup = Supervisor(SupervisorConfig(
        out_dir=tmp_path / "sweep", max_retries=5, backoff_base=0.25,
    ))
    try:
        assert sup.policy.max_restores == 5
        assert sup.policy.backoff(1) == 0.25
        assert sup.policy.backoff(3) == 1.0
    finally:
        sup.close()


def test_manifest_with_an_engine_fallback_is_refused(tmp_path, capsys):
    """A manifest from before the engine fallback was removed may journal
    a Time Warp point rerun on the conservative engine; its pickled
    result is a YAWNS run.  The resume refuses it, naming the point and
    the fallback, before any point is served."""
    from repro.experiments.runner import main

    out = tmp_path / "sweep"
    scen = report_scenario(4, 8.0, seed=7).to_dict()
    spec = {"kind": "opt", "scenario": scen, "n_pes": 4, "n_kps": 16,
            "batch_size": 16, "window": None, "overrides": None,
            "telemetry": None, "checkpoint_every": 4}
    twin = {"kind": "cons", "scenario": scen, "n_pes": 4,
            "telemetry": None, "checkpoint_every": 4}
    sup = _supervisor(out)
    sup._journal(point="p1", status="started", engine="opt", spec=spec)
    sup._journal(point="p1", status="fallback", engine="cons", spec=twin,
                 reason="optimistic attempts exhausted (3)")
    sup._journal(point="p1", status="started", engine="cons", spec=twin)
    sup._journal(point="p1", status="done", engine="cons", attempts=1)
    sup.journal_meta(experiments=["fig5"], params={"sizes": [4]})
    sup.close()

    resumed = _supervisor(out, resume=True)
    try:
        with pytest.raises(ResumeIntegrityError) as exc_info:
            resumed.verify_resume_integrity()
    finally:
        resumed.close()
    msg = str(exc_info.value)
    assert "p1" in msg and "fallback" in msg

    assert main(["--resume", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "p1" in err and "fallback" in err


def test_cli_bare_resume_refuses_tampered_input(tmp_path, capsys):
    """`--resume DIR` exits 2 with the refusal before running anything."""
    from repro.experiments.runner import main

    plan_path = _plan_file(tmp_path)
    spec = _faulted_spec(plan_path)
    out = tmp_path / "sweep"
    sup = _supervisor(out)
    want = point_scenario(spec).scenario_hash()
    sup._journal(point="p1", status="started", spec=spec, scenario_hash=want)
    sup.close()

    generate_plan(
        TorusTopology(4), duration=8.0, link_fail_rate=0.2, seed=11
    ).dump(plan_path)
    assert main(["--resume", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert str(plan_path) in err


def test_manifest_in_the_old_spec_format_is_refused_by_name(tmp_path, capsys):
    """A manifest journaled before points were scenarios is refused before
    any point runs — not replayed into a KeyError."""
    from repro.experiments.runner import main

    out = tmp_path / "sweep"
    sup = _supervisor(out)
    old = {"kind": "seq", "n": 4, "load": 1.0, "duration": 15.0, "seed": 7,
           "fault": None, "telemetry": None, "checkpoint_every": 4}
    sup._journal(point="p1", status="started", spec=old)
    sup.journal_meta(experiments=["fig3"], params={"sizes": [4]})
    sup.close()
    assert main(["--resume", str(out)]) == 2
    err = capsys.readouterr().err
    assert "older format" in err and "'load'" in err
    assert not any((out / "points").iterdir())  # no point ran
