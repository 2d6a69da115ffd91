"""Tests for the barrier GVT: safety (never overshoots) and progress."""

from repro.core.config import EngineConfig
from repro.core.optimistic import TimeWarpKernel
from repro.models.phold import PholdConfig, PholdModel
from repro.vt.time import TIME_HORIZON
from tests.kernel_models import run_batch, transport_faults


def phold_kernel(faults=None):
    cfg = EngineConfig(
        end_time=10.0, n_pes=2, n_kps=4, batch_size=8, mapping="striped"
    )
    kernel = TimeWarpKernel(PholdModel(PholdConfig(n_lps=16, jobs_per_lp=2)), cfg)
    if faults is not None:
        kernel.attach_faults(faults)
    for lp in kernel.lps:
        lp._now = -1.0
        lp.on_init()
    return kernel


def true_min_unprocessed(kernel):
    """Full scan of everything that can still execute or arrive."""
    live = [ev.key.ts for pe in kernel.pes for ev in pe.pending]
    for ev, _, is_ghost in getattr(kernel.transport, "_held", ()):
        if is_ghost or not ev.cancelled:
            live.append(ev.key.ts)
    return min(live, default=TIME_HORIZON)


def test_estimate_is_safe_lower_bound_throughout_run():
    # A fault-wrapped transport holds cross-PE messages over several
    # rounds, so estimates are taken with messages genuinely in flight.
    kernel = phold_kernel(transport_faults(drop=0.1, dup=0.1, delay=0.3))
    estimates = []
    held_seen = 0
    for _ in range(60):
        for pe in kernel.pes:
            pe.stats.round_busy = 0.0
            run_batch(kernel, pe, 8, 10.0)
        held_seen += kernel.transport.in_flight_count()
        est = kernel.gvt_manager.estimate(kernel)
        assert est <= true_min_unprocessed(kernel)
        estimates.append(est)
        kernel.transport.flush()
    assert held_seen > 0
    # Monotone non-decreasing and eventually progressing.
    assert estimates == sorted(estimates)
    assert estimates[-1] > 0.0


def test_synchronous_is_exact_post_flush():
    kernel = phold_kernel()
    for pe in kernel.pes:
        run_batch(kernel, pe, 20, 10.0)
    assert kernel.gvt_manager.estimate(kernel) == true_min_unprocessed(kernel)
