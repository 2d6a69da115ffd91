"""Tests for the ``python -m repro.hotpotato`` command-line interface."""

import json
import pathlib

import pytest

from repro.hotpotato.__main__ import build_parser, main

EXAMPLES_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"
)


def test_defaults():
    args = build_parser().parse_args([])
    assert args.n == 8
    assert args.processors == 1
    assert args.probability_i == 100.0


def test_option_strings_are_pinned():
    # A new flag must show up as a diff of this list (ROADMAP aim 2).
    options = [
        s for action in build_parser()._actions for s in action.option_strings
        if s.startswith("--") and s != "--help"
    ]
    assert options == [
        "--n", "--engine", "--processors", "--duration", "--probability-i",
        "--no-absorb-sleeping", "--topology", "--scenario",
        "--procs", "--kps", "--batch", "--gvt-interval", "--seed",
        "--validate", "--metrics-out", "--trace-out",
        "--spans-out", "--fault-rate",
        "--paranoid", "--checkpoint-dir", "--checkpoint-every", "--resume",
        "--deadline-seconds", "--watchdog",
    ]


def test_deleted_cancellation_flag_exits_2(capsys):
    # Cancellation is aggressive only; the flag is gone, not ignored.
    with pytest.raises(SystemExit) as excinfo:
        main(["--n", "4", "--duration", "20", "--cancellation", "lazy"])
    assert excinfo.value.code == 2
    assert "--cancellation" in capsys.readouterr().err


def test_sequential_run(capsys):
    rc = main(["--n", "4", "--duration", "20", "--probability-i", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4x4 torus" in out
    assert "engine=sequential" in out
    assert "packets delivered" in out


def test_parallel_run(capsys):
    rc = main(
        ["--n", "4", "--duration", "20", "--processors", "2", "--kps", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=optimistic (2 PE)" in out
    assert "events rolled back" in out


def test_procs_1_is_the_in_process_run(capsys, tmp_path):
    """``--procs 1`` is not a mode of its own: the same stdout byte for
    byte as the run without it, and checkpoints in the in-process layout
    (no ``shard_*`` directories) that ``--resume`` picks up."""
    from repro.ckpt import list_snapshots

    flags = ["--n", "8", "--duration", "20", "--processors", "4"]
    assert main(flags) == 0
    plain = capsys.readouterr().out
    assert main([*flags, "--procs", "1"]) == 0
    assert capsys.readouterr().out == plain

    ckpt_dir = tmp_path / "ckpt"
    ckpt_flags = [*flags, "--procs", "1", "--checkpoint-dir", str(ckpt_dir),
                  "--checkpoint-every", "8"]
    assert main(ckpt_flags) == 0
    capsys.readouterr()
    snaps = sorted(list_snapshots(ckpt_dir))
    assert len(snaps) >= 2 and not list(ckpt_dir.glob("shard_*"))
    for snap in snaps[len(snaps) // 2:]:
        snap.unlink()
    assert main([*ckpt_flags, "--resume"]) == 0
    resumed = capsys.readouterr().out.splitlines()
    assert set(plain.splitlines()) <= set(resumed)


def test_validate_cross_engine(capsys):
    rc = main(["--n", "4", "--duration", "20", "--kps", "8", "--validate"])
    assert rc == 0
    assert "IDENTICAL" in capsys.readouterr().out


def test_mesh_and_proof_mode(capsys):
    rc = main(
        ["--n", "4", "--duration", "20", "--topology", "mesh",
         "--no-absorb-sleeping"]
    )
    assert rc == 0
    assert "4x4 mesh" in capsys.readouterr().out


def test_bad_probability(capsys):
    assert main(["--probability-i", "150"]) == 2


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--procs", "2", "--paranoid"], ("paranoid",)),
        (["--procs", "3"], ("procs must divide n_pes",)),
        (["--scenario", str(EXAMPLES_DIR / "adversarial_hotspot.json")],
         ("--scenario declares the workload", "drop --n")),
        (["--engine", "seq"], ("--engine seq", "--processors")),
        (["--engine", "cons", "--procs", "2"], ("--engine cons", "drop --procs")),
        (["--engine", "cons", "--kps", "16"], ("--engine cons", "drop --kps")),
        (["--engine", "cons", "--batch", "64"], ("--engine cons", "drop --batch")),
        (["--engine", "cons", "--gvt-interval", "8"],
         ("--engine cons", "drop --gvt-interval")),
        (["--checkpoint-every", "0"], ("--checkpoint-every must be at least 1",)),
        (["--checkpoint-every", "-2"], ("--checkpoint-every must be at least 1",)),
        (["--deadline-seconds", "0"], ("--deadline-seconds must be positive",)),
        (["--deadline-seconds", "-1.5"], ("--deadline-seconds must be positive",)),
    ],
    ids=["paranoid-procs", "procs-not-dividing", "scenario-with-workload-flag",
         "seq-with-processors", "cons-with-procs", "cons-with-kps",
         "cons-with-batch", "cons-with-gvt-interval", "checkpoint-every-0",
         "checkpoint-every-negative", "deadline-0", "deadline-negative"],
)
def test_refused_engine_config_exits_2_before_any_fork(
    capsys, monkeypatch, tmp_path, flags, names
):
    """What EngineConfig refuses, the CLI refuses by name up front: exit
    2, no worker forked, no shared-memory segment, no output file."""
    import os

    def no_fork():
        raise AssertionError("forked a worker for a refused configuration")

    monkeypatch.setattr(os, "fork", no_fork)
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    out_file = tmp_path / "run.jsonl"
    rc = main(
        ["--n", "8", "--processors", "4", "--metrics-out", str(out_file),
         "--checkpoint-dir", str(tmp_path / "ckpt"), *flags]
    )
    assert rc == 2
    out = capsys.readouterr().out
    for name in names:
        assert name in out
    assert not out_file.exists() and not (tmp_path / "ckpt").exists()
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) == shm


def _plan(path, rate=0.05, seed=3, n=8, duration=40.0):
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    generate_plan(
        TorusTopology(n), duration=duration, link_fail_rate=rate, seed=seed
    ).dump(path)
    return str(path)


@pytest.mark.parametrize(
    "workload",
    [[], ["--topology", "mesh"], ["--no-absorb-sleeping"],
     ["--probability-i", "50"], ["--fault-rate", "5"]],
    ids=["torus", "mesh", "no-absorb", "probability-50", "fault-rate"],
)
def test_flags_run_the_scenario_they_compile_to(tmp_path, capsys, workload):
    """The workload flags are a scenario document: written to a file and
    run with --scenario, it prints the same model lines and pins the same
    checkpoint marker."""
    from repro.ckpt import list_snapshots, read_snapshot
    from repro.hotpotato.__main__ import flags_scenario

    flags = ["--n", "8", "--duration", "20", "--seed", "7", *workload]
    doc = tmp_path / "flags.json"
    doc.write_text(flags_scenario(build_parser().parse_args(flags)).to_json())
    engine = ["--processors", "2", "--kps", "4", "--checkpoint-every", "4"]

    outs, markers = [], []
    for name, declared in (("flags", flags), ("file", ["--scenario", str(doc)])):
        ckpt_dir = tmp_path / name
        assert main([*declared, *engine, "--checkpoint-dir", str(ckpt_dir)]) == 0
        outs.append([ln for ln in capsys.readouterr().out.splitlines()
                     if ln.startswith("  ")])
        markers.append(read_snapshot(list_snapshots(ckpt_dir)[0])["marker"])
    assert outs[0] == outs[1] and len(outs[0]) >= 10
    assert markers[0] == markers[1]


def test_resume_refuses_a_regenerated_fault_plan(tmp_path, capsys):
    """The checkpoint marker pins the content of the fault plan file a
    scenario names, not its path: regenerating the file between
    interrupt and resume is refused."""
    from repro.ckpt import list_snapshots

    scenario = _tiny(tmp_path, name="planned", traffic={"model": "bernoulli"},
                     topology={"kind": "torus", "n": 8},
                     engine={"duration": 40.0, "seed": 0x5EED},
                     faults=_plan(tmp_path / "p.json"))
    ckpt_dir = tmp_path / "ck"
    flags = ["--scenario", scenario, "--processors", "2",
             "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "1"]
    assert main(flags) == 0
    snaps = list_snapshots(ckpt_dir)
    for snap in snaps[len(snaps) // 2:]:
        snap.unlink()
    _plan(tmp_path / "p.json", rate=0.2, seed=11)
    capsys.readouterr()
    out_file = tmp_path / "resumed.jsonl"
    assert main([*flags, "--resume", "--metrics-out", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert "marker mismatch" in err and "scenario_hash" in err
    assert not out_file.exists()


def test_resume_refuses_a_snapshot_with_the_old_marker(tmp_path, capsys):
    """A snapshot written under the per-flag marker shape of older
    versions is refused before any work, not resumed."""
    from repro.ckpt import Checkpointer
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.simulation import HotPotatoSimulation

    old_marker = {
        "workload": "hotpotato", "scenario": None, "scenario_hash": None,
        "n": 8, "duration": 20.0, "probability_i": 100.0,
        "absorb_sleeping": True, "topology": "torus", "processors": 1,
        "kps": 16, "batch": 16, "gvt_interval": 1, "procs": None,
        "seed": 0x5EED, "paranoid": False, "fault_plan": None,
        "fault_rate": 0.0, "fault_seed": None,
    }
    ckpt_dir = tmp_path / "ck"
    HotPotatoSimulation(HotPotatoConfig(n=8, duration=20.0)).run(
        checkpointer=Checkpointer(ckpt_dir, every=1, marker=old_marker)
    )
    out_file = tmp_path / "resumed.jsonl"
    assert main(["--n", "8", "--duration", "20", "--checkpoint-dir",
                 str(ckpt_dir), "--resume", "--metrics-out", str(out_file)]) == 2
    assert "marker mismatch" in capsys.readouterr().err
    assert not out_file.exists()


def test_kp_count_that_cannot_tile_is_refused_up_front(capsys, tmp_path):
    """A 6x6 scenario on 4 PEs with 16 KPs: refused by name, exit 2, no
    file written; with --kps 4 it runs and validates."""
    scenario = str(EXAMPLES_DIR / "adversarial_faulted.json")
    out_file = tmp_path / "run.jsonl"
    rc = main(["--scenario", scenario, "--processors", "4", "--kps", "16",
               "--metrics-out", str(out_file)])
    assert rc == 2
    assert "configuration refused:" in capsys.readouterr().out
    assert not out_file.exists()
    assert main(["--scenario", scenario, "--processors", "4", "--kps", "4",
                 "--validate"]) == 0
    assert "cross-engine check : IDENTICAL" in capsys.readouterr().out


def test_conservative_transport_faults_are_refused_up_front(capsys, tmp_path):
    """A held message would land below a conservative window already run:
    --engine cons refuses a transport-noise plan by name, exit 2, before
    any file or checkpoint directory exists; Time Warp runs it."""
    scenario = tmp_path / "noise.json"
    scenario.write_text(json.dumps({
        "schema": "RPSCEN01", "name": "noise",
        "topology": {"kind": "torus", "n": 4},
        "traffic": {"model": "bernoulli"}, "routing": {"policy": "busch"},
        "engine": {"duration": 10.0, "seed": 7},
        "faults": {"generate": {"drop_rate": 0.05, "dup_rate": 0.02,
                                "delay_rate": 0.05, "seed": 3}},
    }))
    out_file, ckpt_dir = tmp_path / "run.jsonl", tmp_path / "ck"
    assert main(["--scenario", str(scenario), "--engine", "cons", "--validate",
                 "--metrics-out", str(out_file),
                 "--checkpoint-dir", str(ckpt_dir)]) == 2
    assert "configuration refused: conservative execution cannot take " \
        "transport faults" in capsys.readouterr().out
    assert not out_file.exists() and not ckpt_dir.exists()
    assert main(["--scenario", str(scenario), "--engine", "opt",
                 "--validate"]) == 0
    assert "cross-engine check : IDENTICAL" in capsys.readouterr().out


def test_grid_without_a_default_kp_count_runs_sequentially(capsys):
    """5x5 has no block-tiling KP count for 4 PEs: the sequential run
    works, Time Warp is refused by name before it starts."""
    assert main(["--n", "5", "--duration", "10"]) == 0
    assert "5x5 torus" in capsys.readouterr().out
    assert main(["--n", "5", "--duration", "10", "--processors", "4"]) == 2
    assert "configuration refused:" in capsys.readouterr().out


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


@pytest.mark.parametrize("engine", ["seq", "cons", "opt"])
def test_engine_runs_a_scenario_file(tmp_path, capsys, engine):
    """``--scenario FILE --engine E --validate`` on each engine matches
    the other side of the check (Time Warp for seq, the oracle else),
    prints the adversary line and records the scripted injections."""
    from repro.obs.recorder import SCHEMA_VERSION, load_recording

    out_jsonl = tmp_path / "run.jsonl"
    assert main(["--scenario", _tiny(tmp_path), "--engine", engine,
                 "--validate", "--trace-out", str(out_jsonl)]) == 0
    out = capsys.readouterr().out
    assert "cross-engine check : IDENTICAL" in out
    assert "adversary          : hotspot" in out
    rec = load_recording(out_jsonl)
    assert rec.header["schema"] == SCHEMA_VERSION
    assert rec.header["scenario"] == "tiny"
    assert rec.header["engine"] == {"seq": "sequential", "cons": "conservative",
                                    "opt": "optimistic"}[engine]
    assert rec.header["scenario_hash"]
    assert rec.adversary, "scripted injections must be logged up front"
    assert {"step", "node", "dest"} <= set(rec.adversary[0])


class _Stop(Exception):
    pass


def _run_request(monkeypatch, argv):
    """The engine kind and settings ``main(argv)`` asks
    :meth:`HotPotatoSimulation.run` for, stopped before the run."""
    from repro.hotpotato.simulation import HotPotatoSimulation

    seen = []

    def record(self, kind, *, tracer, metrics, spans, checkpointer, health,
               **settings):
        seen.append((kind, settings))
        raise _Stop

    monkeypatch.setattr(HotPotatoSimulation, "run", record)
    with pytest.raises(_Stop):
        main(argv)
    return seen[0]


def _shape(settings):
    ecfg = settings["engine_config"]
    return ecfg.n_pes, ecfg.n_kps, ecfg.batch_size


def test_scenario_engine_section_fills_unnamed_settings(tmp_path, monkeypatch):
    """Each engine setting is the flag, else the scenario's engine
    section, else the compiled default (``kp_count_for`` for KPs; one KP
    per PE on the conservative kernel)."""
    from repro.core.config import EngineConfig

    engine = {"duration": 10.0, "seed": 7, "n_pes": 2, "n_kps": 8, "batch_size": 4}
    declared = ["--scenario", _tiny(tmp_path, engine=engine)]
    _, settings = _run_request(monkeypatch, [*declared, "--engine", "opt"])
    assert _shape(settings) == (2, 8, 4)
    _, settings = _run_request(monkeypatch, [
        *declared, "--engine", "opt", "--processors", "4", "--batch", "32"])
    assert _shape(settings) == (4, 8, 32)
    assert _run_request(monkeypatch, [*declared, "--engine", "cons"]) == (
        "conservative", {"engine_config": EngineConfig(end_time=10.0, n_pes=2,
                                                       seed=7)})
    _, settings = _run_request(
        monkeypatch, ["--scenario", _tiny(tmp_path), "--engine", "opt"])
    assert _shape(settings) == (4, 16, 16)


@pytest.mark.parametrize(
    "n, flags, expected",
    [
        (32, ["--processors", "1"], None),
        (32, ["--processors", "4", "--batch", "64"],
         dict(n_pes=4, n_kps=16, batch_size=64)),
        (32, ["--processors", "4", "--batch", "64", "--gvt-interval", "16"],
         dict(n_pes=4, n_kps=16, batch_size=64, gvt_interval=16)),
        (32, ["--processors", "4", "--batch", "64", "--gvt-interval", "16",
              "--procs", "2"],
         dict(n_pes=4, n_kps=16, batch_size=64, gvt_interval=16, procs=2)),
        (16, ["--processors", "4", "--batch", "2048"],
         dict(n_pes=4, n_kps=16, batch_size=2048)),
        (64, ["--processors", "4", "--batch", "64"],
         dict(n_pes=4, n_kps=16, batch_size=64)),
    ],
    ids=["seq-n32", "tw-n32", "opt-n32", "mp-p2-n32", "opt-rollback-n16",
         "opt-n64-scale"],
)
def test_benchmark_flag_sets_build_the_same_engine(monkeypatch, n, flags, expected):
    """The benchmark's command lines keep their engine: the sequential
    oracle, or the Time Warp config these flags built when ``--kps`` and
    ``--batch`` had CLI defaults of 16."""
    from repro.core.config import EngineConfig

    kind, settings = _run_request(
        monkeypatch, ["--n", str(n), "--duration", "30", "--seed", "7", *flags])
    if expected is None:
        assert (kind, settings) == ("sequential", {"paranoid": False})
    else:
        assert (kind, settings) == ("optimistic", {
            "engine_config": EngineConfig(end_time=30.0, seed=7, **expected)})


#: A process-mode run small enough to record and resume in a test.
MP_RUN = ["--n", "8", "--duration", "4", "--processors", "2", "--procs", "2"]


def _files(root):
    """Every path under ``root`` with its bytes (``None`` for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _no_fork(monkeypatch):
    import os

    def no_fork():
        raise AssertionError("forked a worker for a refused resume")

    monkeypatch.setattr(os, "fork", no_fork)


def test_process_mode_resume_of_an_empty_directory_is_refused_before_any_fork(
    tmp_path, capsys, monkeypatch
):
    """``--procs 2 --resume`` where no shard set exists exits 2 like an
    in-process resume: no worker forked, no ``manifest.json`` written."""
    empty = tmp_path / "empty"
    empty.mkdir()
    _no_fork(monkeypatch)
    assert main([*MP_RUN, "--checkpoint-dir", str(empty), "--resume"]) == 2
    assert "resume failed: no snapshot to resume from" in capsys.readouterr().err
    assert list(empty.iterdir()) == []


def test_process_mode_resume_under_another_seed_is_refused_before_any_fork(
    tmp_path, capsys, monkeypatch
):
    """A shard set written at ``--seed 7`` and resumed at ``--seed 8`` is
    refused by the parent: exit 2, no worker forked, and the directory
    (its ``manifest.json`` included) byte for byte as it was."""
    ckpt = tmp_path / "ckpt"
    assert main([*MP_RUN, "--seed", "7", "--checkpoint-dir", str(ckpt)]) == 0
    before = _files(ckpt)
    assert (ckpt / "manifest.json") in before
    capsys.readouterr()
    _no_fork(monkeypatch)
    assert main([*MP_RUN, "--seed", "8", "--checkpoint-dir", str(ckpt),
                 "--resume"]) == 2
    err = capsys.readouterr().err
    assert "resume failed: " in err and "marker mismatch" in err
    assert _files(ckpt) == before


def test_process_mode_reports_the_snapshots_its_workers_wrote(tmp_path, capsys):
    """A ``--procs 2`` run prints the snapshot count an in-process run of
    the same flags prints: one snapshot per cut, each cut a file in
    every shard."""
    from repro.ckpt import list_snapshots

    run = ["--n", "8", "--duration", "10", "--seed", "7", "--processors", "2",
           "--checkpoint-every", "5"]
    counts = []
    for name, procs in (("inproc", []), ("mp", ["--procs", "2"])):
        ckpt = tmp_path / name
        assert main([*run, *procs, "--checkpoint-dir", str(ckpt)]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.endswith(f"snapshot(s) in {ckpt}")]
        assert len(line) == 1, f"{name}: no snapshot line"
        counts.append(int(line[0].split()[0]))
    inproc, mp = counts
    assert mp == inproc > 0
    for shard in ("shard_0", "shard_1"):
        assert len(list_snapshots(tmp_path / "mp" / shard)) == mp


@pytest.mark.parametrize("refusal", ["format", "marker", "missing-shard"])
def test_a_refused_resume_leaves_the_recording_as_it_was(
    tmp_path, capsys, refusal
):
    """The whole cut is checked before the capture resumes its sinks, so
    a refused resume (an old payload format, another seed, a shard with
    no snapshot) truncates no telemetry file."""
    from repro.ckpt import list_snapshots, read_snapshot, write_snapshot

    ckpt, rec = tmp_path / "ckpt", tmp_path / "run.jsonl"
    run = MP_RUN if refusal == "missing-shard" else ["--n", "8", "--duration", "30"]

    def flags(seed):
        return [*run, "--seed", str(seed), "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "5", "--metrics-out", str(rec),
                "--trace-out", str(rec)]

    assert main(flags(7)) == 0
    if refusal == "format":
        newest = list_snapshots(ckpt)[-1]
        write_snapshot(newest, {**read_snapshot(newest), "format": 9})
    elif refusal == "missing-shard":
        for snap in list_snapshots(ckpt / "shard_1"):
            snap.unlink()
    recorded = rec.read_bytes()
    capsys.readouterr()
    assert main([*flags(8 if refusal == "marker" else 7), "--resume"]) == 2
    assert "resume failed: " in capsys.readouterr().err
    assert rec.read_bytes() == recorded
