"""Direct unit tests for KernelProcess rollback and fossil mechanics.

The engine-level tests exercise these paths end to end; these tests pin
the KP's own contract with a real (tiny) kernel so regressions localise.
"""

from repro.core.config import EngineConfig
from repro.core.optimistic import TimeWarpKernel
from repro.models.phold import PholdConfig, PholdModel
from repro.vt.time import EventKey
from tests.kernel_models import run_batch


def make_kernel(n_pes=2, n_kps=4):
    cfg = EngineConfig(
        end_time=50.0, n_pes=n_pes, n_kps=n_kps, batch_size=8, mapping="striped"
    )
    kernel = TimeWarpKernel(PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2)), cfg)
    for lp in kernel.lps:
        lp._now = -1.0
        lp.on_init()
    return kernel


def test_processed_list_stays_key_sorted_through_rollbacks():
    kernel = make_kernel()
    for _ in range(40):
        for pe in kernel.pes:
            pe.stats.round_busy = 0.0
            run_batch(kernel, pe, 8, 50.0)
        for kp in kernel.kps:
            keys = [ev.key for ev in kp.processed]
            assert keys == sorted(keys)


def test_needs_rollback_logic():
    kernel = make_kernel()
    kp = kernel.kps[0]
    assert not kp.needs_rollback(EventKey(0.0, 0, 0))  # pristine KP
    for pe in kernel.pes:
        run_batch(kernel, pe, 20, 50.0)
    if kp.processed:
        last = kp.processed[-1].key
        assert kp.needs_rollback(EventKey(last.ts - 0.01, 0, 0))
        assert not kp.needs_rollback(EventKey(last.ts + 1.0, 0, 0))


def test_rollback_until_removes_exact_suffix():
    kernel = make_kernel(n_pes=1, n_kps=1)
    pe = kernel.pes[0]
    run_batch(kernel, pe, 30, 50.0)
    kp = kernel.kps[0]
    assert len(kp.processed) == 30
    bound = kp.processed[10].key
    undone = kp.rollback_until(bound, kernel, trigger_lp=-1)
    assert undone == 20
    assert len(kp.processed) == 10
    assert all(ev.key < bound for ev in kp.processed)
    assert kp.stats.rollbacks == 1
    assert kp.stats.events_rolled_back == 20
    # All 20 went back to pending for re-execution.
    assert len(pe.pending) >= 20


def test_rollback_until_noop_below_everything():
    kernel = make_kernel(n_pes=1, n_kps=1)
    run_batch(kernel, kernel.pes[0], 10, 50.0)
    kp = kernel.kps[0]
    high = EventKey(999.0, 0, 0)
    assert kp.rollback_until(high, kernel, trigger_lp=-1) == 0
    assert kp.stats.rollbacks == 0


def test_fossil_collect_prefix_only():
    kernel = make_kernel(n_pes=1, n_kps=1)
    run_batch(kernel, kernel.pes[0], 30, 50.0)
    kp = kernel.kps[0]
    mid_ts = kp.processed[15].key.ts
    removed = kp.fossil_collect(mid_ts, kernel)
    assert removed > 0
    assert all(ev.key.ts >= mid_ts for ev in kp.processed)
    # Idempotent at the same GVT.
    assert kp.fossil_collect(mid_ts, kernel) == 0


def test_fossil_never_frees_at_or_above_gvt():
    # DESIGN.md invariant 7.
    kernel = make_kernel(n_pes=1, n_kps=1)
    run_batch(kernel, kernel.pes[0], 30, 50.0)
    kp = kernel.kps[0]
    gvt = kp.processed[5].key.ts
    kp.fossil_collect(gvt, kernel)
    assert kp.processed[0].key.ts >= gvt
