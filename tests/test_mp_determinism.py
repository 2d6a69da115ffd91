"""Cross-process determinism: the multicore acceptance invariant.

The committed sequence of a process-mode (``procs >= 2``) run must be
byte-identical to the sequential oracle's on golden seeds — at every
process count, under a model fault plan, and across a kill-at-checkpoint
resume from per-worker shards.  These are the tests CI's multicore smoke
step leans on (``.github/workflows``): if they pass, every event that
crossed a shared-memory ring was delivered, rolled back and committed
exactly as the one-process engine would have.

Runs are deliberately small (the test host may be single-core, so each
mp run time-slices ``procs`` workers over one CPU) but every one crosses
real process boundaries with real ring traffic.
"""

import shutil

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import ARRIVE, INJECT, ROUTE
from repro.net.torus import TorusTopology
from repro.obs.spans import SpanTracer
from tests.kernel_models import plan_spy

N = 4
DURATION = 12.0
GOLDEN_SEEDS = (7, 0xB5EED)


def _cfg() -> HotPotatoConfig:
    return HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)


def _ecfg(procs: int, seed: int, **overrides) -> EngineConfig:
    kwargs = dict(
        end_time=DURATION,
        n_pes=4,
        n_kps=16,
        batch_size=16,
        seed=seed,
        procs=procs,
        gvt_interval=8,
    )
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


@pytest.mark.parametrize("procs", [2, 4])
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_procs_committed_sequence_identical_to_sequential(procs, seed):
    seq_tr = Tracer()
    oracle = run_sequential(
        HotPotatoModel(_cfg()), DURATION, seed=seed, tracer=seq_tr
    )
    mp_tr = Tracer()
    mp = run_optimistic(
        HotPotatoModel(_cfg()), _ecfg(procs, seed), tracer=mp_tr
    )
    assert mp_tr.committed_sequence() == seq_tr.committed_sequence()
    assert mp.model_stats == oracle.model_stats
    assert mp.run.committed == oracle.run.committed
    assert mp.run.procs == procs
    # The run really crossed process boundaries: ring traffic happened.
    assert mp.run.ring_messages > 0
    assert mp.run.gvt_token_rounds > 0


def test_procs_identical_under_model_fault_plan():
    """Link failures and router crashes from a FaultPlan replay
    identically across the process boundary (fault schedules are pure
    functions of the step, and steps commit in the same order)."""
    plan = generate_plan(
        TorusTopology(N),
        duration=DURATION,
        link_fail_rate=0.1,
        heal_after=8,
        router_crash_rate=0.08,
        recover_after=6,
        seed=0xD00D,
    )
    assert plan.events, "plan unexpectedly empty — rates/seed drifted"
    seed = GOLDEN_SEEDS[0]

    seq_tr = Tracer()
    oracle = run_sequential(
        HotPotatoModel(_cfg(), fault_plan=plan), DURATION, seed=seed,
        tracer=seq_tr,
    )
    mp_tr = Tracer()
    mp = run_optimistic(
        HotPotatoModel(_cfg(), fault_plan=plan), _ecfg(4, seed),
        tracer=mp_tr,
    )
    assert mp_tr.committed_sequence() == seq_tr.committed_sequence()
    assert mp.model_stats == oracle.model_stats
    # The plan actually bit (otherwise this test proves nothing).
    ms = oracle.model_stats
    assert ms["fault_dropped"] > 0 or ms["fault_deflections"] > 0


def test_kill_at_checkpoint_resume_identical(tmp_path):
    """Shard-set resume: truncate the per-worker shard directories to a
    mid-run snapshot (what an uncoordinated kill leaves behind — one
    shard may even be a sequence ahead of another) and resume.  The
    completed resumed run must reproduce the oracle bit-for-bit.
    """
    procs = 2
    seed = GOLDEN_SEEDS[0]
    oracle = run_sequential(HotPotatoModel(_cfg()), DURATION, seed=seed)

    snap_dir = tmp_path / "snaps"
    marker = {"case": "mp-resume", "seed": seed}
    ckpt = Checkpointer(snap_dir, every=1, marker=marker)
    recorded = run_optimistic(
        HotPotatoModel(_cfg()), _ecfg(procs, seed, gvt_interval=4),
        checkpointer=ckpt,
    )
    assert recorded.model_stats == oracle.model_stats, (
        "attaching a checkpointer changed the committed run"
    )
    assert (snap_dir / "manifest.json").exists()
    shard_dirs = [snap_dir / f"shard_{i}" for i in range(procs)]
    snaps = [sorted(list_snapshots(d)) for d in shard_dirs]
    assert all(len(s) >= 3 for s in snaps), (
        "need mid-run snapshots to make truncation meaningful"
    )

    # Kill-at-checkpoint: keep an early prefix, and leave shard 0 one
    # sequence ahead of shard 1 — the workers must resume from the
    # newest *common* sequence, not the newest file.
    keep = 2
    for i, d in enumerate(shard_dirs):
        for snap in snaps[i][keep + (1 if i == 0 else 0):]:
            snap.unlink()

    resume_ckpt = Checkpointer(snap_dir, every=1 << 30, marker=marker)
    resume_ckpt.mp_resume = True
    resumed = run_optimistic(
        HotPotatoModel(_cfg()), _ecfg(procs, seed, gvt_interval=4),
        checkpointer=resume_ckpt,
    )
    assert resumed.model_stats == oracle.model_stats
    assert resumed.run.committed == oracle.run.committed


def test_worker_checkpoints_are_timed_as_snapshot_spans(tmp_path):
    """A worker's shard write is a ``snapshot`` span, exactly like an
    in-process checkpoint, so the merged breakdown says what it cost."""
    procs = 2
    snap_dir = tmp_path / "snaps"
    spans = SpanTracer()
    run_optimistic(
        HotPotatoModel(_cfg()), _ecfg(procs, GOLDEN_SEEDS[0], gvt_interval=4),
        spans=spans,
        checkpointer=Checkpointer(snap_dir, every=1, marker={"case": "spans"}),
    )
    written = sum(
        len(list_snapshots(snap_dir / f"shard_{i}")) for i in range(procs)
    )
    count, seconds, _ = spans.phase_breakdown().get("snapshot", (0, 0.0, 0.0))
    assert written > 0
    assert count == written and seconds > 0


def test_resume_refuses_marker_mismatch(tmp_path):
    """A shard written by a differently-configured run must not resume
    silently into this one.  The worker's SnapshotError surfaces through
    the parent as its worker-failure report."""
    from repro.errors import ConfigurationError

    procs = 2
    seed = GOLDEN_SEEDS[0]
    snap_dir = tmp_path / "snaps"
    ckpt = Checkpointer(snap_dir, every=1, marker={"case": "original"})
    run_optimistic(
        HotPotatoModel(_cfg()), _ecfg(procs, seed, gvt_interval=4),
        checkpointer=ckpt,
    )
    resume_ckpt = Checkpointer(
        snap_dir, every=1 << 30, marker={"case": "different"}
    )
    resume_ckpt.mp_resume = True
    with pytest.raises(ConfigurationError, match="marker mismatch"):
        run_optimistic(
            HotPotatoModel(_cfg()), _ecfg(procs, seed, gvt_interval=4),
            checkpointer=resume_ckpt,
        )


# ----------------------------------------------------------------------
# Untraced process mode: the path ``--procs`` users run.  Traced or not,
# the workers run the same compiled send (near/far branch) and batch
# over the model's handler table with positional ring frames; these
# larger untraced runs compare with the sequential oracle through
# everything an untraced run reports.
# ----------------------------------------------------------------------
BIG_N = 8
BIG_END = 10.0
BIG_SEED = 0x5EED
TABLE_KINDS = (ARRIVE, ROUTE, INJECT)


def _big_cfg(**overrides) -> HotPotatoConfig:
    return HotPotatoConfig(
        n=BIG_N, duration=BIG_END, injector_fraction=1.0, **overrides
    )


def _big_ecfg(procs: int, **overrides) -> EngineConfig:
    kwargs = dict(
        end_time=BIG_END, n_pes=4, n_kps=16, batch_size=64, seed=BIG_SEED,
        procs=procs, gvt_interval=8,
    )
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def _assert_equals_oracle(mp, oracle):
    assert mp.model_stats == oracle.model_stats
    assert mp.run.committed == oracle.run.committed
    assert mp.run.processed - mp.run.events_rolled_back == mp.run.committed
    assert mp.run.ring_messages > 0


@pytest.fixture(scope="module")
def big_oracle():
    return run_sequential(HotPotatoModel(_big_cfg()), BIG_END, seed=BIG_SEED)


UNTRACED_CELLS = [(p, r) for p in (2, 4) for r in ("reverse", "copy")]


@pytest.mark.parametrize(
    "procs, rollback",
    UNTRACED_CELLS,
    # The ids name the pending queue ("heap", the only one) as the suite
    # has always printed them; reverse-computation cells keep the
    # "aggressive" label they had when cancellation was a choice.
    ids=[
        f"{procs}-{'aggressive' if rollback == 'reverse' else rollback}-heap"
        for procs, rollback in UNTRACED_CELLS
    ],
)
def test_untraced_procs_equal_the_oracle(big_oracle, procs, rollback):
    model = HotPotatoModel(_big_cfg())
    calls = plan_spy(model, TABLE_KINDS)
    mp = run_optimistic(model, _big_ecfg(procs, rollback=rollback))
    _assert_equals_oracle(mp, big_oracle)
    assert mp.run.procs == procs
    # The workers ran the handler table under either rollback strategy.
    assert all(calls)


def test_untraced_procs_heavy_cross_ring_rollback(big_oracle):
    """A 512-event batch lets each worker run far ahead of the other:
    the table's sends are rolled back after they crossed a ring, so anti
    frames chase positional positives."""
    model = HotPotatoModel(_big_cfg())
    calls = plan_spy(model, TABLE_KINDS)
    mp = run_optimistic(model, _big_ecfg(2, batch_size=512))
    _assert_equals_oracle(mp, big_oracle)
    assert all(calls)
    assert mp.run.events_rolled_back > mp.run.committed // 4
    assert mp.run.cancelled_direct + mp.run.cancelled_via_rollback > 0


def test_untraced_procs_under_model_fault_plan():
    plan = generate_plan(
        TorusTopology(BIG_N),
        duration=BIG_END,
        link_fail_rate=0.05,
        heal_after=4,
        router_crash_rate=0.03,
        recover_after=3,
        seed=0xD00D,
    )
    oracle = run_sequential(
        HotPotatoModel(_big_cfg(), fault_plan=plan), BIG_END, seed=BIG_SEED
    )
    ms = oracle.model_stats
    assert ms["fault_dropped"] > 0 or ms["fault_deflections"] > 0
    model = HotPotatoModel(_big_cfg(), fault_plan=plan)
    calls = plan_spy(model, TABLE_KINDS)
    mp = run_optimistic(model, _big_ecfg(2))
    _assert_equals_oracle(mp, oracle)
    # The handlers inline the routers' fault branches: the table ran.
    assert all(calls)


def test_untraced_procs_mesh_runs_the_scalar_population():
    """The handlers honour link existence, so the workers run the table
    on a mesh too, with the same positional frames on the ring.  (The id
    is kept from when the mesh ran ``forward`` alone.)"""
    cfg = _big_cfg(topology="mesh")
    oracle = run_sequential(HotPotatoModel(cfg), BIG_END, seed=BIG_SEED)
    model = HotPotatoModel(cfg)
    calls = plan_spy(model, TABLE_KINDS)
    mp = run_optimistic(model, _big_ecfg(2))
    _assert_equals_oracle(mp, oracle)
    assert all(calls)


def test_traced_procs_name_the_tracer_as_the_decline():
    """A Tracer declines nothing: traced workers run the same batch and
    handler table.  (The id is kept from when the Tracer was the
    decline.)"""
    model = HotPotatoModel(_big_cfg())
    calls = plan_spy(model, TABLE_KINDS)
    mp = run_optimistic(model, _big_ecfg(2), tracer=Tracer())
    assert all(calls)


def test_untraced_kill_at_checkpoint_resume(big_oracle, tmp_path):
    """Workers running the table, resumed from truncated shard
    directories (tuple payloads through the snapshot, uid table rebuilt),
    finish on the oracle."""
    procs = 2
    snap_dir = tmp_path / "snaps"
    marker = {"case": "mp-band-resume"}
    ecfg = _big_ecfg(procs, gvt_interval=2)
    recorded = run_optimistic(
        HotPotatoModel(_big_cfg()), ecfg,
        checkpointer=Checkpointer(snap_dir, every=1, marker=marker),
    )
    _assert_equals_oracle(recorded, big_oracle)
    shard_dirs = [snap_dir / f"shard_{i}" for i in range(procs)]
    snaps = [sorted(list_snapshots(d)) for d in shard_dirs]
    assert all(len(s) >= 4 for s in snaps)
    for shard in snaps:
        for snap in shard[len(shard) // 2:]:
            snap.unlink()
    resume_ckpt = Checkpointer(snap_dir, every=1 << 30, marker=marker)
    resume_ckpt.mp_resume = True
    model = HotPotatoModel(_big_cfg())
    calls = plan_spy(model, TABLE_KINDS)
    resumed = run_optimistic(model, ecfg, checkpointer=resume_ckpt)
    assert resumed.model_stats == big_oracle.model_stats
    assert resumed.run.committed == big_oracle.run.committed
    assert all(calls)


def test_send_into_the_past_is_the_same_error_under_procs():
    """The workers' compiled send keeps the SchedulingError check and its
    text: the parent reports the failing worker's traceback, which ends
    in the message an in-process run raises."""
    from repro.errors import ConfigurationError, SchedulingError
    from tests.kernel_models import POKE, TICK, ChattyLP, ChattyModel

    class BackwardLP(ChattyLP):
        def forward(self, event):
            if event.kind == TICK and self.now >= 3.0:
                self.send(self.now, self.peer, POKE)
            super().forward(event)

    class BackwardModel(ChattyModel):
        def build(self):
            return [BackwardLP(i, (i + 1) % self.n_lps) for i in range(self.n_lps)]

        def mp_event_schema(self):
            return {TICK: (), POKE: ()}

    ecfg = dict(end_time=6.0, n_pes=2, n_kps=2, seed=7)
    with pytest.raises(SchedulingError) as inline:
        run_optimistic(BackwardModel(4), EngineConfig(**ecfg))
    message = str(inline.value)
    assert "sends must move strictly forward" in message
    with pytest.raises(ConfigurationError) as mp:
        run_optimistic(
            BackwardModel(4),
            EngineConfig(procs=2, **ecfg),
        )
    assert "SchedulingError" in str(mp.value)
    # Which LP trips first depends on the worker; the rest is the same text.
    assert message.split(" ", 2)[2] in str(mp.value)
