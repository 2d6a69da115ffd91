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

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
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
    """The band program: a snapshot at every step end and every
    ``seq_events`` commits of the per-event prefix (8x8: 128 events before
    step 1), each resumed on the program from the step it records, or,
    from the prefix, at step 1 as a fresh run enters it."""
    entries = []
    cfg = HotPotatoConfig(n=8, duration=DURATION, injector_fraction=1.0)

    def make_engine():
        model = HotPotatoModel(cfg)
        entries.append(band_spy(model))
        return SequentialEngine(model, DURATION, seed=SEED)

    n = _check_resume_from_every_snapshot(tmp_path, make_engine, {"case": "seq-band"})
    oracle, recorded, *resumed = entries
    steps = list(range(1, int(DURATION)))
    assert oracle == [1]
    assert recorded == steps  # left and re-entered at every step end
    assert len(resumed) == n > len(steps)
    for got in resumed:
        assert got == steps[steps.index(got[0]):]
    assert sorted({got[0] for got in resumed}) == steps
    assert sum(got[0] == 1 for got in resumed) >= 2  # prefix snapshots


def test_format_4_snapshot_refused_before_the_first_event(tmp_path):
    """A snapshot of an older payload format (4: conservative snapshots
    still carried channel clocks and a null-message count) is refused by
    number, before anything runs."""
    from repro.ckpt.snapshot import read_snapshot, write_snapshot
    from repro.errors import SnapshotError

    marker = {"case": "fmt4"}
    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker=marker, seq_events=SEQ_EVENTS)
    SequentialEngine(HotPotatoModel(_cfg()), DURATION, seed=SEED)\
        .attach_checkpointer(ckpt).run()
    snaps = list_snapshots(snap_dir)
    mid = snaps[len(snaps) // 2]
    payload = read_snapshot(mid)
    assert payload["pending"] and payload["loop"]["step"] > 1
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    write_snapshot(old_dir / mid.name, {**payload, "format": 4})

    ck = Checkpointer(old_dir, every=1 << 30, marker=marker, seq_events=SEQ_EVENTS)
    ck.load_latest()
    model = HotPotatoModel(_cfg())
    entries = band_spy(model)
    fresh = SequentialEngine(model, DURATION, seed=SEED)
    with pytest.raises(SnapshotError, match="payload format 4"):
        fresh.attach_checkpointer(ck)
    assert fresh._resume is None and not fresh.pending
    assert entries == []


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_conservative_resume_every_snapshot(tmp_path, protocol):
    ccfg = ConservativeConfig(end_time=DURATION, n_pes=4, seed=SEED)
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
