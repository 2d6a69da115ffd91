"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.costmodel import CostModel
from repro.core.mapping import check_mapping_strategy
from repro.errors import ConfigurationError

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for an optimistic (Time Warp) run.

    Parameters mirror the knobs the report varies: number of PEs (Figs 5/6),
    number of KPs (Figs 7/8), mapping strategy (§3.2.3) and the rollback
    strategy (ROSS's reverse computation vs GTW-style state saving).
    What the report does not vary is not a knob: the pending queue is a
    binary heap (:class:`~repro.core.queue.PendingQueue`), in-process
    delivery is immediate (:class:`~repro.core.transport.ImmediateTransport`
    — a fault plan wraps it, ``procs >= 2`` puts real rings between
    workers) and in-process GVT is Fujimoto's barrier reduction
    (:class:`~repro.core.gvt.SynchronousGVT`).

    Attributes
    ----------
    end_time:
        Virtual-time barrier; only events strictly below it execute (the
        report's ``SIMULATION_DURATION``).
    n_pes, n_kps:
        Processing elements and kernel processes.  ``n_kps`` must be a
        multiple of ``n_pes``; the report uses 64 KPs by default.
    batch_size:
        Events a PE executes per scheduling round before yielding — the
        optimism budget.  Larger batches mean PEs run further ahead of each
        other, producing more stragglers and rollbacks.
    window:
        Optional *virtual-time* optimism window: when set, each PE also
        stops its round at ``GVT + window``, so per-round optimism scales
        with the model's event density instead of being a fixed event
        count.  This matches ROSS's behaviour, where each PE drains what
        it has between GVT epochs; use it (with a generous batch_size cap)
        for the speed-up and KP experiments.
    gvt_interval:
        Scheduling rounds between GVT computations / fossil collections.
    mapping:
        ``"block"``, ``"striped"`` or ``"random"`` (see
        :mod:`repro.core.mapping`).
    rollback:
        ``"reverse"`` (reverse computation) or ``"copy"`` (state saving).
        Either way a rollback cancels every message the undone events sent
        at once (aggressive cancellation, as ROSS does).
    adaptive:
        Enable the optimism throttle (:mod:`repro.core.throttle`):
        ``batch_size``/``window`` become ceilings that the executive scales
        down when the measured rollback fraction spikes and restores when
        it subsides.  Deterministic, like everything else.
    procs:
        Worker processes.  ``1`` (the default) runs the whole kernel in
        this process, its PEs simulated concurrency.  ``2`` or more
        splits the run across that many OS processes, each owning an
        equal slice of the PEs (so ``procs`` must divide ``n_pes``) and
        exchanging events over pickle-free shared-memory rings (see
        :mod:`repro.mp` and docs/KERNEL.md "Multicore execution").
        Committed results are bit-identical either way.
    seed:
        Global seed from which every LP RNG stream is derived.
    paranoid:
        Run the opt-in invariant checks (:mod:`repro.core.invariants`)
        at every GVT epoch: queue order, GVT monotonicity, processed
        order, packet conservation.  O(live events) per epoch; off by
        default, observationally invisible when on.
    cost:
        The virtual wall-clock :class:`~repro.core.costmodel.CostModel`.
    """

    end_time: float
    n_pes: int = 1
    n_kps: int = 1
    batch_size: int = 16
    window: float | None = None
    gvt_interval: int = 1
    mapping: str = "block"
    rollback: str = "reverse"
    adaptive: bool = False
    procs: int = 1
    seed: int = 0x5EED
    paranoid: bool = False
    cost: CostModel = field(default_factory=CostModel)

    #: Not a field (``EngineConfig(queue=...)`` is a ``TypeError``): the
    #: constant ``perfbench/probes.py``, which a PR may not edit, reads to
    #: build its hold-model queue.  Nothing in ``src/`` reads it.
    queue: ClassVar[str] = "heap"

    def __post_init__(self) -> None:
        if self.end_time <= 0:
            raise ConfigurationError(f"end_time must be positive, got {self.end_time}")
        if self.n_pes < 1:
            raise ConfigurationError(f"n_pes must be >= 1, got {self.n_pes}")
        if self.n_kps < self.n_pes:
            raise ConfigurationError(
                f"need at least one KP per PE (n_kps={self.n_kps}, n_pes={self.n_pes})"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window is not None and self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        check_mapping_strategy(self.mapping)
        if self.rollback not in ("reverse", "copy"):
            raise ConfigurationError(
                f"rollback must be 'reverse' or 'copy', got {self.rollback!r}"
            )
        if self.gvt_interval < 1:
            raise ConfigurationError(
                f"gvt_interval must be >= 1, got {self.gvt_interval}"
            )
        if self.procs < 1:
            raise ConfigurationError(f"procs must be >= 1, got {self.procs}")
        if self.n_pes % self.procs:
            raise ConfigurationError(
                f"procs must divide n_pes in process mode "
                f"(n_pes={self.n_pes}, procs={self.procs})"
            )
        if self.paranoid and self.procs > 1:
            raise ConfigurationError(
                "paranoid invariant checks are per-worker and would "
                "false-alarm on cross-worker packet conservation; run "
                "paranoid in-process (procs=1) instead"
            )
