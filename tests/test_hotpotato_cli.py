"""Tests for the ``python -m repro.hotpotato`` command-line interface."""

import pytest

from repro.hotpotato.__main__ import build_parser, main


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
        "--n", "--processors", "--duration", "--probability-i",
        "--no-absorb-sleeping", "--topology", "--scenario",
        "--procs", "--kps", "--batch", "--gvt-interval", "--seed",
        "--validate", "--metrics-out", "--trace-out",
        "--spans-out", "--fault-plan", "--fault-rate", "--fault-seed",
        "--paranoid", "--checkpoint-dir", "--checkpoint-every", "--resume",
        "--deadline-seconds", "--watchdog", "--health-out",
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
    ],
    ids=["paranoid-procs", "procs-not-dividing"],
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
     ["--probability-i", "50"], ["--fault-rate", "5"], ["--fault-plan", "PLAN"]],
    ids=["torus", "mesh", "no-absorb", "probability-50", "fault-rate", "fault-plan"],
)
def test_flags_run_the_scenario_they_compile_to(tmp_path, capsys, workload):
    """The workload flags are a scenario document: written to a file and
    run with --scenario, it prints the same model lines and pins the same
    checkpoint marker."""
    from repro.ckpt import list_snapshots, read_snapshot
    from repro.hotpotato.__main__ import flags_scenario

    workload = [_plan(tmp_path / "p.json", duration=20.0) if w == "PLAN" else w
                for w in workload]
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
    """The checkpoint marker pins the fault plan's content, not its path:
    regenerating the file between interrupt and resume is refused."""
    from repro.ckpt import list_snapshots

    plan = _plan(tmp_path / "p.json")
    ckpt_dir = tmp_path / "ck"
    flags = ["--n", "8", "--duration", "40", "--processors", "2",
             "--fault-plan", plan, "--checkpoint-dir", str(ckpt_dir),
             "--checkpoint-every", "1"]
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
    """A 6x6 scenario on 4 PEs with the default 16 KPs: refused by name,
    exit 2, no file written; with --kps 4 it runs and validates."""
    import pathlib

    scenario = str(pathlib.Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "adversarial_faulted.json")
    out_file = tmp_path / "run.jsonl"
    rc = main(["--scenario", scenario, "--processors", "4",
               "--metrics-out", str(out_file)])
    assert rc == 2
    assert "configuration refused:" in capsys.readouterr().out
    assert not out_file.exists()
    assert main(["--scenario", scenario, "--processors", "4", "--kps", "4",
                 "--validate"]) == 0
    assert "cross-engine check : IDENTICAL" in capsys.readouterr().out


def test_grid_without_a_default_kp_count_runs_sequentially(capsys):
    """5x5 has no block-tiling KP count for 4 PEs: the sequential run
    works, Time Warp is refused by name before it starts."""
    assert main(["--n", "5", "--duration", "10"]) == 0
    assert "5x5 torus" in capsys.readouterr().out
    assert main(["--n", "5", "--duration", "10", "--processors", "4"]) == 2
    assert "configuration refused:" in capsys.readouterr().out
