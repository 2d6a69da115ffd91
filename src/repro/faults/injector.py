"""Engine-level fault driver: installs a plan's transport faults and PE
stalls into a kernel.

One :class:`EngineFaults` instance drives one run.  The engines accept it
via ``attach_faults`` (mirroring ``attach_tracer``/``attach_metrics``)
and call back into it from exactly two places:

* ``install(kernel)`` — once, before the run: wraps the kernel's
  transport in a :class:`~repro.faults.transport.FaultyTransport` when
  the plan has transport faults (which also clears the kernel's
  ``_direct`` flag, so the fused fast paths are not compiled around the
  wrapper), and compiles the plan's stall windows into per-PE sorted
  boundary tuples.
* ``stalled(pe_id, round)`` — once per PE per scheduler round, *only*
  when a driver is attached: a ``bisect`` into the precompiled bounds.
  A stalled PE simply skips its batch that round; Time Warp tolerates
  any execution-order perturbation, and the conservative kernel's
  windows (GVT + lookahead) already account for the stalled PE's pending
  events, so skipping is always safe.  Windows are finite, so runs
  always terminate.  The conservative kernel refuses transport faults
  before ``install`` (``refuse_transport_faults`` in
  :mod:`repro.core.conservative`).

Model faults (link/router schedules) do **not** live here — they are
compiled into per-node views by :mod:`repro.faults.views` and attached
to the router LPs by the model, so all three engines (including the
sequential oracle, which has no PEs or transport) observe the identical
fault schedule.  Engine-level faults, by contrast, are pure scheduling
perturbations that must leave committed results untouched; attaching
this driver to the sequential engine is accepted and is a no-op.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.faults.plan import FaultPlan
from repro.faults.transport import FaultyTransport
from repro.faults.views import _to_bounds, _union

__all__ = ["EngineFaults"]


class EngineFaults:
    """Per-run driver for a plan's transport faults and PE stalls."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        #: The installed transport wrapper (None when the plan has no
        #: transport faults).
        self.transport: FaultyTransport | None = None
        #: PE-rounds skipped due to stall windows (filled during the run).
        self.stall_rounds = 0
        self._stall_bounds: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def install(self, kernel) -> "EngineFaults":
        """Hook the plan into ``kernel`` (idempotent per kernel build)."""
        plan = self.plan
        if plan.has_transport_faults:
            wrapper = FaultyTransport(kernel.transport, plan, kernel)
            kernel.transport = wrapper
            # The wrapper must see every delivery: force the generic
            # _emit path (the fused send checks this before run()).
            kernel._direct = False
            self.transport = wrapper
        if plan.has_stalls:
            per_pe: dict[int, list] = {}
            for st in plan.stalls:
                per_pe.setdefault(st.pe, []).append(
                    (st.start_round, st.start_round + st.rounds)
                )
            self._stall_bounds = {
                pe: _to_bounds(_union(ivs)) for pe, ivs in per_pe.items()
            }
        return self

    def stalled(self, pe_id: int, round_no: int) -> bool:
        """True when ``pe_id`` must skip scheduler round ``round_no``."""
        bounds = self._stall_bounds.get(pe_id)
        if bounds is not None and bisect_right(bounds, round_no) & 1:
            self.stall_rounds += 1
            return True
        return False
