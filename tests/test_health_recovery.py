"""The degradation ladder's heavy rungs: restore and abort.

The convergence contract (docs/HEALTH.md): a watchdog-triggered restore
from the last good snapshot must produce exactly the committed results
the undisturbed run produces (snapshot grafts are bit-exact, so recovery
never changes the science), and a run that cannot be restored aborts on
its own engine rather than being recomputed on another.
"""

import json

import pytest

from repro.ckpt import Checkpointer
from repro.core.config import EngineConfig
from repro.core.optimistic import TimeWarpKernel
from repro.errors import HealthAbort
from repro.health import (
    HealthConfig,
    RecoveryPolicy,
    Watchdog,
    run_with_recovery,
)
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

N = 4
DURATION = 12.0
SEED = 7


def _model() -> HotPotatoModel:
    return HotPotatoModel(
        HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)
    )


def _build():
    return TimeWarpKernel(
        _model(),
        EngineConfig(end_time=DURATION, n_pes=2, n_kps=8, batch_size=16,
                     seed=SEED),
    )


@pytest.fixture(scope="module")
def baseline():
    """Undisturbed optimistic run's model statistics."""
    return _build().run().model_stats


# ----------------------------------------------------------------------
# RecoveryPolicy mechanics.
# ----------------------------------------------------------------------
def test_policy_backoff_doubles():
    policy = RecoveryPolicy(backoff_base=0.5)
    assert [policy.backoff(a) for a in (1, 2, 3)] == [0.5, 1.0, 2.0]


# ----------------------------------------------------------------------
# Recovery convergence.
# ----------------------------------------------------------------------
def test_forced_restore_converges_on_baseline(tmp_path, baseline):
    """opt raises after snapshots exist; the graft resumes and converges."""
    ckpt = Checkpointer(tmp_path / "ckpt", every=2)
    wd = Watchdog(
        HealthConfig(trip_at_boundary=40, ladder=("restore", "abort")),
    )
    slept = []
    actions = []
    rec = run_with_recovery(
        _build, wd,
        policy=RecoveryPolicy(max_restores=2, backoff_base=0.25),
        ckpt=ckpt, sleep=slept.append, on_action=actions.append,
    )
    assert rec.recovered
    assert rec.engine.kind == "optimistic"
    assert [a["action"] for a in rec.actions] == ["restore"]
    assert actions == rec.actions  # on_action saw the same journal
    assert rec.actions[0]["snapshot"].endswith(".rpsnap")
    assert slept == [0.25]
    assert rec.result.model_stats == baseline


def test_restore_without_checkpointer_escalates_to_abort():
    """Nothing to restore from: the next rung is abort, on the same
    engine — the run is never recomputed on another one."""
    wd = Watchdog(
        HealthConfig(trip_at_boundary=5, ladder=("restore", "abort")),
    )
    built = []

    def build():
        built.append(_build())
        return built[-1]

    actions = []
    with pytest.raises(HealthAbort, match="on optimistic engine"):
        run_with_recovery(
            build, wd, policy=RecoveryPolicy(backoff_base=0.0),
            sleep=lambda _s: None, on_action=actions.append,
        )
    assert len(built) == 1
    assert [a["action"] for a in actions] == ["abort"]


def test_exhausted_ladder_aborts_with_forensics_bundle(tmp_path):
    """The ladder ends in abort + a forensics bundle."""
    wd = Watchdog(HealthConfig(trip_at_boundary=5, ladder=("abort",)))
    policy = RecoveryPolicy(forensics_dir=tmp_path / "forensics")
    with pytest.raises(HealthAbort) as exc_info:
        run_with_recovery(_build, wd, policy=policy, sleep=lambda _s: None)
    manifest = tmp_path / "forensics" / "forensics.json"
    assert str(manifest) in str(exc_info.value)
    doc = json.loads(manifest.read_text())
    assert doc["trigger"]["detector"] == "forced"
    assert doc["health_events"], "watchdog event log missing from bundle"


def test_unwatched_run_with_recovery_is_a_plain_run(baseline):
    rec = run_with_recovery(_build, Watchdog())
    assert not rec.recovered
    assert rec.actions == []
    assert rec.result.model_stats == baseline
