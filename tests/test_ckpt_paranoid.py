"""--paranoid invariant mode: clean runs pass, corruption is named.

The first half proves the checks are silent on healthy runs of all three
engines (so --paranoid is safe to leave on in CI).  The second half
corrupts kernel state directly and asserts each check raises
InvariantViolation with a diagnostic naming the structure involved.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.invariants import check_optimistic, check_sequential
from repro.core.optimistic import TimeWarpKernel
from repro.errors import InvariantViolation
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel

N = 4
DURATION = 10.0
SEED = 7


def _model() -> HotPotatoModel:
    return HotPotatoModel(
        HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)
    )


def _opt_kernel(**overrides) -> TimeWarpKernel:
    cfg = EngineConfig(
        end_time=DURATION, n_pes=4, n_kps=16, batch_size=16, seed=SEED,
        **overrides,
    )
    return TimeWarpKernel(_model(), cfg)


def test_sequential_paranoid_run_clean():
    res = SequentialEngine(_model(), DURATION, seed=SEED, paranoid=True).run()
    assert res.run.committed > 0


def test_optimistic_paranoid_run_clean():
    res = _opt_kernel(paranoid=True).run()
    assert res.run.committed > 0


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_conservative_paranoid_run_clean(protocol):
    cfg = EngineConfig(end_time=DURATION, n_pes=4, seed=SEED, paranoid=True)
    res = ConservativeKernel(_model(), cfg).run()
    assert res.run.committed > 0


def test_paranoid_matches_unparanoid_commits():
    """The checks observe, never perturb: committed runs are identical."""
    plain = _opt_kernel().run()
    checked = _opt_kernel(paranoid=True).run()
    assert checked.model_stats == plain.model_stats
    assert checked.run.committed == plain.run.committed


@pytest.mark.parametrize("paranoid", [False, True])
def test_time_warp_checks_every_gvt_only_when_paranoid(monkeypatch, paranoid):
    """The kernel imports its check only under paranoid, and then calls
    it at every GVT point."""
    import repro.core.invariants as invariants

    calls = []
    checked = invariants.check_optimistic
    monkeypatch.setattr(
        invariants, "check_optimistic",
        lambda kernel, prev: calls.append(prev) or checked(kernel, prev),
    )
    _opt_kernel(paranoid=paranoid).run()
    assert (len(calls) > 1) if paranoid else not calls


def test_gvt_regression_detected():
    kernel = _opt_kernel()
    kernel.run()
    check_optimistic(kernel, kernel.gvt)  # healthy post-run state passes
    with pytest.raises(InvariantViolation, match="GVT moved backwards"):
        check_optimistic(kernel, kernel.gvt + 1.0)


def test_processed_order_corruption_names_the_kp():
    kernel = _opt_kernel()
    kernel.run()
    # Fabricate an out-of-order processed list on one KP from two
    # distinct-key post-run pending events.
    events = []
    for pe in kernel.pes:
        for ev in pe.pending:
            if not events or ev.key != events[-1].key:
                events.append(ev)
            if len(events) == 2:
                break
        if len(events) == 2:
            break
    assert len(events) == 2, "post-run state held too few events to corrupt"
    earlier, later = sorted(events, key=lambda e: e.key)
    kp = kernel.kps[0]
    kp.processed[:] = [later, earlier]
    with pytest.raises(InvariantViolation, match=r"KP \d+ .*out of key order"):
        check_optimistic(kernel, 0.0)


def test_heap_order_corruption_detected():
    engine = SequentialEngine(_model(), DURATION, seed=SEED)
    engine.run()
    heap = engine.pending._heap
    assert len(heap) >= 2, "post-run queue too small to corrupt"
    heap[0], heap[-1] = heap[-1], heap[0]
    with pytest.raises(InvariantViolation, match="heap order violated"):
        check_sequential(engine, DURATION)


def test_conservation_violation_names_the_router():
    cfg = EngineConfig(end_time=DURATION, n_pes=4, seed=SEED)
    kernel = ConservativeKernel(_model(), cfg)
    kernel.run()
    # The conservative kernel runs Time Warp's loop, so --paranoid runs
    # Time Warp's check at every window.
    check_optimistic(kernel, kernel.gvt)  # healthy post-run state passes
    kernel.lps[3].stats.delivered = -1
    with pytest.raises(
        InvariantViolation, match="packet conservation violated"
    ):
        check_optimistic(kernel, kernel.gvt)
