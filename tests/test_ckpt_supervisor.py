"""The run supervisor: watchdog kills, retries, failure, resume."""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.experiments import supervisor
from repro.experiments.supervisor import (
    PointFailure,
    Supervisor,
    point_id,
    read_meta,
)
from repro.scenarios import report_scenario

ROOT = Path(__file__).resolve().parent.parent


def _scenario(duration: float = 15.0) -> dict:
    return report_scenario(4, duration, seed=7).to_dict()


def _opt_spec(**extra) -> dict:
    spec = {
        "kind": "opt", "scenario": _scenario(),
        "n_pes": 4, "n_kps": 16, "batch_size": 16, "window": None,
        "overrides": None, "telemetry": None, "checkpoint_every": 4,
    }
    spec.update(extra)
    return spec


def _seq_spec(duration: float = 15.0, **extra) -> dict:
    spec = {
        "kind": "seq", "scenario": _scenario(duration), "telemetry": None,
        "checkpoint_every": 4,
    }
    spec.update(extra)
    return spec


def _manifest(sup) -> list[dict]:
    return [
        json.loads(line)
        for line in sup.manifest_path.read_text().splitlines()
        if line.strip()
    ]


def _oracle_stats(duration: float = 15.0):
    from repro.experiments.common import point_spec
    from repro.experiments.pointworker import run_spec

    spec = point_spec("seq", report_scenario(4, duration, seed=7))
    return run_spec(spec)["model_stats"]


def test_point_id_is_canonical():
    a = {"kind": "seq", "n": 4, "seed": 7}
    b = {"seed": 7, "n": 4, "kind": "seq"}
    assert point_id(a) == point_id(b)
    assert point_id(a) != point_id(dict(a, seed=8))


def test_happy_path_journals_done(tmp_path):
    sup = Supervisor(tmp_path)
    try:
        res = sup.run_point(_seq_spec())
    finally:
        sup.close()
    assert res["model_stats"] == _oracle_stats()
    statuses = [d["status"] for d in _manifest(sup) if "point" in d]
    assert statuses == ["started", "done"]


@pytest.fixture
def sabotage(monkeypatch):
    """Children run ``tests.sabotage_worker``, which honours a spec's
    ``sabotage`` key; the supervisor's constants are patched here, in the
    parent process that reads them."""
    monkeypatch.setattr(Supervisor, "worker_module", "tests.sabotage_worker")
    path = [str(ROOT), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(supervisor, name, value)

    return patch


def test_stall_without_fallback_raises_point_failure(tmp_path, sabotage):
    sabotage(HEARTBEAT_TIMEOUT=1.0, MAX_ATTEMPTS=1, BACKOFF_BASE=0.05,
             POLL_INTERVAL=0.05)
    sup = Supervisor(tmp_path)
    try:
        with pytest.raises(PointFailure):
            sup.run_point(_opt_spec(sabotage="stall"))
    finally:
        sup.close()
    assert [d["status"] for d in _manifest(sup) if "point" in d][-1] == "failed"


def test_flaky_point_succeeds_after_backoff_retries(tmp_path, sabotage):
    """A child that crashes on its first two attempts succeeds on the
    third, inside one run_point call, after sleeping
    ``BACKOFF_BASE * 2**(attempt - 1)`` before each retry."""
    sabotage(MAX_ATTEMPTS=3, BACKOFF_BASE=0.05)
    sup = Supervisor(tmp_path)
    spec = _seq_spec(sabotage={"flaky": 2})
    try:
        res = sup.run_point(spec)
    finally:
        sup.close()
    assert res["model_stats"] == _oracle_stats()
    done = [d for d in _manifest(sup) if d["status"] == "done"]
    assert done and done[0]["attempts"] == 3
    retries = [d for d in _manifest(sup) if d["status"] == "retry"]
    assert [d["attempt"] for d in retries] == [1, 2]
    assert [d["backoff"] for d in retries] == [0.05, 0.1]  # exponential


def test_resume_serves_done_points_without_rerunning(tmp_path):
    spec = _seq_spec()
    sup = Supervisor(tmp_path)
    try:
        first = sup.run_point(spec)
    finally:
        sup.close()

    # Poison the spec file: any re-run of the child would crash on it.
    pdir = tmp_path / "points" / point_id(spec)
    (pdir / "spec_seq.json").write_text("NOT JSON")

    sup2 = Supervisor(tmp_path, resume=True)
    try:
        again = sup2.run_point(spec)
    finally:
        sup2.close()
    assert again["model_stats"] == first["model_stats"]


def test_resume_restores_in_flight_point_from_checkpoints(tmp_path):
    """A point whose earlier attempt died mid-run resumes from its latest
    snapshot instead of starting over (snapshot seq numbers continue)."""
    # every=1 boundary cadence so the short run still writes several
    # snapshots (a sequential boundary is 1024 processed events).
    spec = _seq_spec(40.0, checkpoint_every=1)
    sup = Supervisor(tmp_path)
    try:
        res = sup.run_point(spec)
    finally:
        sup.close()
    pdir = tmp_path / "points" / point_id(spec)
    snaps = sorted((pdir / "ckpt_seq").glob("*.rpsnap"))
    assert snaps, "child wrote no snapshots"

    # Simulate the in-flight crash: result gone, snapshots remain.
    (pdir / "result.pkl").unlink()
    for stale in snaps[len(snaps) // 2:]:
        stale.unlink()

    sup2 = Supervisor(tmp_path, resume=True)
    try:
        res2 = sup2.run_point(spec)
    finally:
        sup2.close()
    assert res2["model_stats"] == res["model_stats"]
    after = sorted((pdir / "ckpt_seq").glob("*.rpsnap"))
    # Continued from the surviving snapshot: the re-written tail continues
    # its numbering rather than restarting at ckpt_000000.
    assert len(after) == len(snaps)


def test_resume_restores_in_flight_process_mode_point_from_shards(tmp_path):
    """A ``procs`` 2 point commits the oracle's statistics, and after a
    mid-run death (result gone, shard directories truncated unevenly)
    resumes from the newest snapshot every shard holds."""
    spec = _opt_spec(
        scenario=_scenario(40.0), overrides={"procs": 2, "gvt_interval": 2},
        checkpoint_every=1,
    )
    oracle = _oracle_stats(40.0)
    sup = Supervisor(tmp_path)
    try:
        assert sup.run_point(spec)["model_stats"] == oracle
    finally:
        sup.close()
    pdir = tmp_path / "points" / point_id(spec)
    shards = [pdir / "ckpt_opt" / f"shard_{i}" for i in range(2)]
    snaps = [sorted(d.glob("*.rpsnap")) for d in shards]
    assert all(len(s) >= 3 for s in snaps), "workers wrote too few snapshots"

    kept = {p: p.stat().st_mtime_ns for p in snaps[1][:2]}
    (pdir / "result.pkl").unlink()
    for i, shard in enumerate(snaps):
        # Shard 0 keeps one snapshot more: the common prefix is the cut.
        for stale in shard[2 + (i == 0):]:
            stale.unlink()

    sup2 = Supervisor(tmp_path, resume=True)
    try:
        assert sup2.run_point(spec)["model_stats"] == oracle
    finally:
        sup2.close()
    # Resumed after sequence 1: a fresh run would have rewritten
    # ckpt_000000 and ckpt_000001; the resumed one continues after them.
    assert {p: p.stat().st_mtime_ns for p in kept} == kept
    assert len(list(shards[1].glob("*.rpsnap"))) > 2


def test_meta_roundtrip(tmp_path):
    sup = Supervisor(tmp_path)
    sup.journal_meta(experiments=["fig3"], params={"sizes": [4], "seed": 7})
    sup.close()
    meta = read_meta(tmp_path)
    assert meta["experiments"] == ["fig3"]
    assert meta["params"]["sizes"] == [4]


def test_result_pickle_shape(tmp_path):
    """The child's result file holds exactly the stats the sweep needs."""
    spec = _seq_spec()
    sup = Supervisor(tmp_path)
    try:
        sup.run_point(spec)
    finally:
        sup.close()
    with (tmp_path / "points" / point_id(spec) / "result.pkl").open("rb") as fh:
        doc = pickle.load(fh)
    assert set(doc) == {"model_stats", "run", "wall_s"}
    assert doc["run"].committed > 0


def test_point_spec_in_the_old_format_is_refused_by_name(tmp_path, capsys):
    """A spec written before points were scenarios is refused before any
    work (no checkpoint directory, no result), not run into a KeyError."""
    from repro.errors import ConfigurationError
    from repro.experiments.pointworker import main, run_spec

    old = {"kind": "seq", "n": 4, "load": 1.0, "duration": 15.0, "seed": 7,
           "fault": None, "telemetry": None, "checkpoint_every": 4}
    with pytest.raises(ConfigurationError, match="older format"):
        run_spec(old, tmp_path / "hb", tmp_path / "ckpt")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(old))
    argv = [spec_path, tmp_path / "result.pkl", tmp_path / "hb", tmp_path / "ckpt"]
    assert main([str(a) for a in argv]) == 2
    assert "older format" in capsys.readouterr().err
    assert not (tmp_path / "ckpt").exists() and not (tmp_path / "result.pkl").exists()
