"""The checkpoint invariant: kill at ANY snapshot, resume, get the
bit-identical committed run — for all three engines, with and without a
fault plan.

Each case runs the workload once clean (the oracle), once with a
checkpointer snapshotting every boundary, then restores from *every*
snapshot written and re-runs to completion.  All resumed runs must
reproduce the oracle's complete model statistics (which include
per-router event fingerprints, so any divergence in committed event
order shows up).
"""

import shutil
from pathlib import Path

import pytest

from repro.ckpt import Checkpointer, list_snapshots, read_snapshot
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.event import Event
from repro.core.optimistic import TimeWarpKernel
from repro.errors import SnapshotError
from repro.faults import FaultPlan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from tests.kernel_models import band_spy, per_event_reference, transport_faults

N = 4
DURATION = 12.0
SEED = 7
SEQ_EVENTS = 64


def _cfg() -> HotPotatoConfig:
    return HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )


def _check_resume_from_every_snapshot(tmp_path, make_engine, marker):
    """Record with every-boundary snapshots, then resume from each one."""
    oracle = make_engine().run()

    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=SEQ_EVENTS)
    recorded = make_engine().attach_checkpointer(ckpt).run()
    assert recorded.model_stats == oracle.model_stats, (
        "attaching a checkpointer changed the committed run"
    )
    snaps = list_snapshots(snap_dir)
    assert snaps, "no snapshots were written"

    for snap in snaps:
        d = tmp_path / f"resume_{snap.stem}"
        d.mkdir()
        shutil.copy(snap, d / snap.name)
        ck = Checkpointer(
            d, every=1 << 30, marker=marker, seq_events=SEQ_EVENTS
        )
        ck.load_latest()
        resumed = make_engine().attach_checkpointer(ck).run()
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the oracle"
        )
    return len(snaps)


def test_sequential_resume_every_snapshot(tmp_path):
    """The per-event loop: snapshots every ``seq_events`` commits."""
    n = _check_resume_from_every_snapshot(
        tmp_path,
        lambda: SequentialEngine(
            per_event_reference(HotPotatoModel(_cfg())), DURATION, seed=SEED
        ),
        {"case": "seq"},
    )
    assert n > 3  # the interval cadence actually produced mid-run snapshots


def test_sequential_band_program_resume_every_snapshot(tmp_path):
    """The band program: a snapshot at every step end (the program runs
    from step 0's INIT, so there is no per-event prefix to cut), each
    resumed on the program, entered once at the step it records."""
    entries = []
    cfg = HotPotatoConfig(n=8, duration=DURATION, injector_fraction=1.0)

    def make_engine():
        model = HotPotatoModel(cfg)
        entries.append(band_spy(model))
        return SequentialEngine(model, DURATION, seed=SEED)

    n = _check_resume_from_every_snapshot(tmp_path, make_engine, {"case": "seq-band"})
    oracle, recorded, *resumed = entries
    steps = list(range(int(DURATION)))
    assert oracle == [0]
    assert recorded == [0]  # every step end read in place
    assert len(resumed) == n == len(steps) - 1
    assert all(len(got) == 1 for got in resumed)
    assert sorted(got[0] for got in resumed) == steps[1:]


def _events_in(obj) -> int:
    """How many ``Event`` objects a snapshot payload's containers hold."""
    if isinstance(obj, Event):
        return 1
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return 0
    return sum(_events_in(item) for item in obj)


def test_band_snapshot_holds_no_event(tmp_path):
    """A band-program snapshot stores the step end's cut as it stands: its
    heap is empty, and its loop state holds the in-flight ARRIVEs as
    tuples and each router's INJECT / HEARTBEAT seq in two lists."""
    ckpt = Checkpointer(tmp_path, every=1)
    SequentialEngine(HotPotatoModel(_cfg()), DURATION, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    snaps = list_snapshots(tmp_path)
    assert len(snaps) == int(DURATION) - 1
    for i, snap in enumerate(snaps):
        payload = read_snapshot(snap)
        assert payload["pending"] == []
        assert _events_in(payload) == 0
        loop = payload["loop"]
        assert loop["step"] == i + 1
        arrivals, inj_seq, hb_seq = loop["band"]
        assert arrivals and all(type(t) is tuple for t in arrivals)
        assert all(t[4] == loop["step"] for t in arrivals)  # the packet's step
        assert len(inj_seq) == len(hb_seq) == N * N
        assert all(type(seq) is int for seq in inj_seq + hb_seq)


#: A mid-run snapshot (step 6) of the band program on ``_cfg()`` at
#: ``SEED``, written by the version whose program left at every step end:
#: payload format 9, its heap holding the in-flight set as events.
FORMAT_9_BAND = Path(__file__).parent / "data" / "sequential_band_format9.rpsnap"


def test_format_9_band_snapshot_refused_by_number(tmp_path):
    """The band program enters only from step 0's INITs or a snapshot's
    band state, so a format-9 snapshot's heap of events is refused by
    number, before the program is entered."""
    payload = read_snapshot(FORMAT_9_BAND)
    assert (payload["format"], payload["kind"]) == (9, "sequential")
    assert payload["loop"] == {"processed": 655, "step": 6}
    assert payload["pending"]
    snap_dir = tmp_path / "snaps"
    snap_dir.mkdir()
    shutil.copy(FORMAT_9_BAND, snap_dir / "ckpt_000005.rpsnap")
    ck = Checkpointer(snap_dir, every=1 << 30, marker={"case": "fmt9"})
    with pytest.raises(SnapshotError, match="payload format 9 .* format 10"):
        ck.load_latest()
    model = HotPotatoModel(_cfg())
    entries = band_spy(model)
    fresh = SequentialEngine(model, DURATION, seed=SEED)
    fresh.attach_checkpointer(ck)
    assert fresh._resume is None and not fresh.pending
    assert entries == []


@pytest.mark.parametrize(
    "workload", ["mesh", "adversary", "greedy", "model-faults"]
)
def test_band_program_resumes_the_mesh_and_an_adversary(tmp_path, workload):
    """The mesh, an adversary script, a non-Busch policy and a fault plan
    with link failures and router crashes, which the band program once
    refused, snapshot at its step ends and resume on it from every
    snapshot to the uninterrupted run's statistics."""
    from repro.baselines import GreedyPolicy
    from repro.faults import generate_plan
    from repro.net import TorusTopology
    from repro.scenarios.adversary import generate_injection_plan

    mesh = workload == "mesh"
    cfg = HotPotatoConfig(
        n=N, duration=DURATION, topology="mesh" if mesh else "torus"
    )
    model_kw = {
        "mesh": {},
        "adversary": dict(injection_plan=generate_injection_plan(
            TorusTopology(N), strategy="hotspot", duration=DURATION, rate=0.5
        )),
        "greedy": dict(policy=GreedyPolicy()),
        "model-faults": dict(fault_plan=generate_plan(
            TorusTopology(N), duration=DURATION, link_fail_rate=0.2,
            router_crash_rate=0.2, recover_after=3, seed=3,
        )),
    }[workload]
    entries = []

    def make_engine():
        model = HotPotatoModel(cfg, **model_kw)
        entries.append(band_spy(model))
        return SequentialEngine(model, DURATION, seed=SEED)

    n = _check_resume_from_every_snapshot(tmp_path, make_engine, {"case": workload})
    assert n > 3
    assert all(entries)  # every run, resumed ones included, ran the program


def test_format_4_snapshot_refused_before_the_first_event(tmp_path):
    """A snapshot of an older payload format is refused by number, before
    anything runs: 4 (conservative snapshots still carried channel clocks
    and a null-message count), and 5 (a sequential mesh run's snapshot,
    cut by the per-event loop at an event inside a band, which the band
    program cannot enter)."""
    from repro.ckpt.snapshot import read_snapshot, write_snapshot
    from repro.errors import SnapshotError

    mesh = HotPotatoConfig(n=N, duration=DURATION, topology="mesh")
    cases = (
        (4, _cfg(), HotPotatoModel),
        (5, mesh, lambda cfg: per_event_reference(HotPotatoModel(cfg))),
    )
    for old, cfg, writer in cases:
        marker = {"case": f"fmt{old}"}
        snap_dir = tmp_path / f"snaps{old}"
        ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=SEQ_EVENTS)
        SequentialEngine(writer(cfg), DURATION, seed=SEED)\
            .attach_checkpointer(ckpt).run()
        snaps = list_snapshots(snap_dir)
        mid = snaps[len(snaps) // 2]
        payload = read_snapshot(mid)
        if old == 4:
            assert payload["loop"]["step"] > 1 and payload["loop"]["band"][0]
        else:
            assert payload["pending"]
        old_dir = tmp_path / f"old{old}"
        old_dir.mkdir()
        write_snapshot(old_dir / mid.name, {**payload, "format": old})

        ck = Checkpointer(
            old_dir, every=1 << 30, marker=marker, seq_events=SEQ_EVENTS
        )
        with pytest.raises(SnapshotError, match=f"payload format {old}"):
            ck.load_latest()
        model = HotPotatoModel(cfg)
        entries = band_spy(model)
        fresh = SequentialEngine(model, DURATION, seed=SEED)
        fresh.attach_checkpointer(ck)
        assert fresh._resume is None and not fresh.pending
        assert entries == []


def test_format_7_snapshot_refused_with_exit_2(tmp_path, capsys, monkeypatch):
    """A format-7 sequential snapshot of a faulted run was cut by the
    per-event loop inside a step (its loop records no step), which the band
    program cannot enter: ``--resume`` refuses it by number and exits 2
    before any event runs."""
    from repro.ckpt.snapshot import read_snapshot, write_snapshot
    from repro.hotpotato import band
    from repro.hotpotato.__main__ import main

    flags = ["--n", "4", "--duration", "12", "--fault-rate", "20",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
    with monkeypatch.context() as patch:
        # The per-event loop, as the format-7 version ran this plan.
        patch.setattr(HotPotatoModel, "band_program", lambda self: None)
        assert main([*flags, "--checkpoint-every", "1"]) == 0
    capsys.readouterr()
    snaps = list_snapshots(tmp_path / "ckpt")
    mid = snaps[len(snaps) // 2]
    payload = read_snapshot(mid)
    assert "step" not in payload["loop"] and payload["pending"]
    write_snapshot(mid, {**payload, "format": 7})
    for later in snaps[len(snaps) // 2 + 1:]:
        later.unlink()

    entries = []
    program = band.run_bands
    monkeypatch.setattr(
        band, "run_bands",
        lambda engine, *args: entries.append(args) or program(engine, *args),
    )
    assert main([*flags, "--resume"]) == 2
    out, err = capsys.readouterr()
    assert "payload format 7" in err
    assert "events committed" not in out
    assert entries == []


def test_format_8_prefix_snapshot_refused_with_exit_2(
    tmp_path, capsys, monkeypatch
):
    """A format-8 sequential snapshot taken every ``seq_events`` commits of
    the per-event prefix (before the band program took over at step 1;
    the per-event loop cuts the same way) holds a cut inside step 0,
    which the program cannot enter: ``--resume`` refuses it by number
    and exits 2 before any event runs."""
    from repro.ckpt.snapshot import read_snapshot, write_snapshot
    from repro.hotpotato import band
    from repro.hotpotato.__main__ import main

    # 24x24: 576 INITs and 576 step-0 INJECTs, so the first 1,024-commit
    # boundary falls inside step 0.
    flags = ["--n", "24", "--duration", "3",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
    with monkeypatch.context() as patch:
        # The per-event loop, which ran step 0 in the format-8 version.
        patch.setattr(HotPotatoModel, "band_program", lambda self: None)
        assert main([*flags, "--checkpoint-every", "1"]) == 0
    capsys.readouterr()
    snaps = list_snapshots(tmp_path / "ckpt")
    first = snaps[0]
    payload = read_snapshot(first)
    assert payload["loop"] == {"processed": 1024}
    assert payload["pending"]
    write_snapshot(first, {**payload, "format": 8})
    for later in snaps[1:]:
        later.unlink()

    entries = []
    program = band.run_bands
    monkeypatch.setattr(
        band, "run_bands",
        lambda engine, *args: entries.append(args) or program(engine, *args),
    )
    assert main([*flags, "--resume"]) == 2
    out, err = capsys.readouterr()
    assert "payload format 8" in err
    assert "events committed" not in out
    assert entries == []


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_conservative_resume_every_snapshot(tmp_path, protocol):
    ccfg = EngineConfig(end_time=DURATION, n_pes=4, seed=SEED)
    n = _check_resume_from_every_snapshot(
        tmp_path,
        lambda: ConservativeKernel(HotPotatoModel(_cfg()), ccfg),
        {"case": f"cons-{protocol}"},
    )
    assert n > 3


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # reverse rollback
        {"rollback": "copy"},
        # Transport faults only: snapshots taken with messages held in
        # flight, on the generic _emit/_receive path.
        {"held": True},
        {"adaptive": True},
    ],
    ids=["reverse", "copy", "held-messages", "adaptive"],
)
def test_optimistic_resume_every_snapshot(tmp_path, overrides):
    overrides = dict(overrides)
    held = overrides.pop("held", False)
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=SEED,
        **overrides,
    )

    def make_engine():
        kernel = TimeWarpKernel(HotPotatoModel(_cfg()), ecfg)
        return kernel.attach_faults(transport_faults()) if held else kernel

    n = _check_resume_from_every_snapshot(
        tmp_path,
        make_engine,
        {"case": "opt", "held": held, **{k: str(v) for k, v in overrides.items()}},
    )
    assert n > 3


#: The last snapshot of a rollback-heavy 4×4 run (``batch_size=2048``),
#: written when every event carried a ``saved`` dict and a ``sent`` list
#: from construction on: its pending events hold empty journals, and the
#: undone ones the keys their last execution left.  Payload format 9,
#: which a Time Warp restore still reads (format 10 changed only the
#: sequential payload); the engine gives every execution a fresh journal,
#: so those are dropped on restore and the run commits what the
#: uninterrupted one does.
PENDING_JOURNALS = Path(__file__).parent / "data" / "optimistic_pending_journals.rpsnap"


def test_snapshot_with_pending_journals_resumes_identically(tmp_path):
    from repro.ckpt.snapshot import read_snapshot
    from repro.ckpt.state import PAYLOAD_FORMAT

    payload = read_snapshot(PENDING_JOURNALS)
    assert payload["format"] == 9 and PAYLOAD_FORMAT == 10
    pending = [ev for events in payload["pending"] for ev in events]
    assert all(ev.sent == [] for ev in pending)
    assert any(ev.saved for ev in pending)  # stale keys of undone executions
    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=2048, seed=SEED
    )

    def make_engine():
        return TimeWarpKernel(HotPotatoModel(_cfg()), ecfg)

    oracle = make_engine().run()
    snap_dir = tmp_path / "snaps"
    snap_dir.mkdir()
    shutil.copy(PENDING_JOURNALS, snap_dir / "ckpt_000005.rpsnap")
    ck = Checkpointer(snap_dir, every=1 << 30, marker={"case": "journals"})
    ck.load_latest()
    kernel = make_engine().attach_checkpointer(ck)
    restored = [ev for pe in kernel.pes for ev in pe.pending]
    assert len(restored) == len(pending)
    assert all(ev.saved is None and ev.sent is None for ev in restored)
    assert kernel.run().model_stats == oracle.model_stats


@pytest.mark.parametrize(
    "gvt_snap",
    [
        ("mattern", 3, {2: 5}, {2: 4}, {2: 1.5}, 1.0),
        ("incremental", 1.0, 7, 12),
    ],
    ids=["mattern", "incremental"],
)
def test_snapshot_naming_a_deleted_gvt_algorithm_refused(gvt_snap):
    """A snapshot written when the in-process kernel still had a Mattern
    or an incremental GVT manager carries state there is nothing to
    restore into: refused by name, before the first event."""
    from repro.errors import SnapshotError

    ecfg = EngineConfig(end_time=DURATION, n_pes=4, n_kps=16, seed=SEED)
    payload = TimeWarpKernel(HotPotatoModel(_cfg()), ecfg).snapshot()
    assert payload["gvt_manager"] == ("synchronous", 0.0)
    fresh = TimeWarpKernel(HotPotatoModel(_cfg()), ecfg)
    with pytest.raises(SnapshotError, match=f"GVT algorithm {gvt_snap[0]!r}"):
        fresh.restore({**payload, "gvt_manager": gvt_snap})


def test_optimistic_resume_with_fault_plan(tmp_path):
    """The invariant holds under a non-empty FaultPlan: model faults are
    part of the model, transport faults are captured with the engine."""
    from repro.faults.injector import EngineFaults

    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )

    def make_engine():
        plan = _fault_plan()
        kernel = TimeWarpKernel(HotPotatoModel(_cfg(), fault_plan=plan), ecfg)
        kernel.attach_faults(EngineFaults(plan))
        return kernel

    n = _check_resume_from_every_snapshot(
        tmp_path, make_engine, {"case": "opt-faulted"}
    )
    assert n > 3


def test_optimistic_resume_mid_run_under_transport_fault_plan(tmp_path):
    """Snapshots every other GVT round with messages held two rounds in
    flight; resuming from the first and a middle one completes the run
    the kernel without a checkpointer commits."""
    from repro.faults.injector import EngineFaults

    ecfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )

    def make_engine():
        kernel = TimeWarpKernel(HotPotatoModel(_cfg()), ecfg)
        return kernel.attach_faults(EngineFaults(_fault_plan()))

    oracle = make_engine().run()
    snap_dir = tmp_path / "snaps"
    marker = {"case": "opt-held-every-2"}
    ckpt = Checkpointer(snap_dir, every=2, marker=marker)
    recorded = make_engine().attach_checkpointer(ckpt).run()
    assert recorded.model_stats == oracle.model_stats

    snaps = list_snapshots(snap_dir)
    assert len(snaps) > 2, "cadence produced no mid-run snapshots"
    for snap in (snaps[0], snaps[len(snaps) // 2]):
        d = tmp_path / f"resume_{snap.stem}"
        d.mkdir()
        shutil.copy(snap, d / snap.name)
        ck = Checkpointer(d, every=1 << 30, marker=marker)
        ck.load_latest()
        resumed = make_engine().attach_checkpointer(ck).run()
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the oracle"
        )


def test_sequential_resume_with_fault_plan(tmp_path):
    def make_engine():
        return SequentialEngine(
            HotPotatoModel(_cfg(), fault_plan=_fault_plan()), DURATION,
            seed=SEED,
        )

    _check_resume_from_every_snapshot(tmp_path, make_engine, {"case": "seq-faulted"})


def test_marker_mismatch_refused(tmp_path):
    from repro.errors import SnapshotError

    ckpt = Checkpointer(tmp_path, every=1, marker={"seed": SEED})
    SequentialEngine(HotPotatoModel(_cfg()), DURATION, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    other = Checkpointer(tmp_path, every=1, marker={"seed": SEED + 1})
    with pytest.raises(SnapshotError, match="marker mismatch"):
        other.load_latest()


def test_resumed_cadence_matches_uninterrupted(tmp_path):
    """A resumed run writes the same remaining snapshots as the
    uninterrupted run would have — boundary pacing is absolute, not
    relative to the restore point."""
    full_dir = tmp_path / "full"
    ckpt = Checkpointer(full_dir, every=2, marker={}, seq_events=SEQ_EVENTS)
    SequentialEngine(HotPotatoModel(_cfg()), DURATION, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    full = [p.name for p in list_snapshots(full_dir)]
    assert len(full) > 1

    # Restore from the first snapshot and let the run finish.
    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    shutil.copy(full_dir / full[0], resumed_dir / full[0])
    ck = Checkpointer(resumed_dir, every=2, marker={}, seq_events=SEQ_EVENTS)
    ck.load_latest()
    SequentialEngine(HotPotatoModel(_cfg()), DURATION, seed=SEED)\
        .attach_checkpointer(ck).run()
    assert [p.name for p in list_snapshots(resumed_dir)] == full
