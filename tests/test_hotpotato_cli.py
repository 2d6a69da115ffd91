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
        "--no-absorb-sleeping", "--topology", "--mesh", "--scenario",
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
        ["--n", "4", "--duration", "20", "--mesh", "--no-absorb-sleeping"]
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
