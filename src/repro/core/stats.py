"""Kernel statistics: per-PE, per-KP and run-level counters.

The report's simulation analysis (§4.2) is entirely in terms of these
numbers — event rate, total events rolled back, rollback containment by
KPs — so the kernel measures them precisely rather than approximately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PEStats", "KPStats", "RunStats"]


@dataclass(slots=True)
class PEStats:
    """Counters for one processing element (slotted: several of these

    fields are updated on every event execution and send).
    """

    #: Forward event executions, including re-executions after rollback.
    processed: int = 0
    #: Events sent to an LP on the same PE.
    local_sends: int = 0
    #: Events sent to an LP on a different PE (the expensive kind; the
    #: block LP/KP/PE mapping exists to minimise these, §3.2.3).
    remote_sends: int = 0
    #: Straggler messages received (each triggers a primary rollback).
    stragglers: int = 0
    #: Virtual busy time accumulated under the cost model, in cost units.
    busy: float = 0.0
    #: Busy time within the current scheduling round (reset each round).
    round_busy: float = 0.0


@dataclass(slots=True)
class KPStats:
    """Counters for one kernel process."""

    #: Rollback episodes that started at this KP.
    rollbacks: int = 0
    #: Processed events undone at this KP (the report's "Total Events
    #: Rolled Back" is the sum over KPs).
    events_rolled_back: int = 0
    #: Undone events whose LP differs from the LP the trigger targeted —
    #: the "false rollbacks" KPs exist to contain (§4.2.3).
    false_rollback_events: int = 0


@dataclass
class RunStats:
    """Aggregated statistics for one engine run."""

    engine: str = "sequential"
    n_pes: int = 1
    n_kps: int = 1
    #: Committed (never rolled back, below final GVT) event executions.
    committed: int = 0
    #: Total forward executions including work later undone.
    processed: int = 0
    events_rolled_back: int = 0
    rollbacks: int = 0
    false_rollback_events: int = 0
    stragglers: int = 0
    cancelled_direct: int = 0
    cancelled_via_rollback: int = 0
    #: Optimism-throttle activity (0 when the throttle is off or idle).
    throttle_adjustments: int = 0
    #: Final optimism factor (1.0 = full batch/window).
    throttle_final_factor: float = 1.0
    local_sends: int = 0
    remote_sends: int = 0
    gvt_rounds: int = 0
    fossil_collected: int = 0
    #: Event-pool accounting: acquires served from the free list vs fresh
    #: Event constructions.
    pool_hits: int = 0
    pool_allocs: int = 0
    #: Peak live events in pending queues / processed lists, sampled at
    #: GVT boundaries (memory-footprint proxies; fossil collection bounds
    #: the processed peak).
    peak_pending: int = 0
    peak_processed: int = 0
    #: Virtual wall-clock makespan in cost-model seconds.
    makespan_seconds: float = 0.0
    #: committed / makespan_seconds (the report's "Event Rate", §4.2).
    event_rate: float = 0.0
    #: Sum of per-PE busy time (for utilisation analysis).
    total_busy_seconds: float = 0.0
    #: Fault-injection activity (all zero when no plan is attached; see
    #: repro.faults).  Transport counters come from the FaultyTransport
    #: wrapper, stall rounds from the EngineFaults driver.
    transport_dropped: int = 0
    transport_duplicated: int = 0
    transport_delayed: int = 0
    pe_stall_rounds: int = 0
    #: Multiprocess-mode activity (all zero under inline parallelism; see
    #: repro.mp).  ``procs`` is the worker-process count, the ring
    #: counters aggregate the shared-memory data rings across workers,
    #: and ``gvt_token_rounds`` counts token passes of the cross-process
    #: GVT waves.
    procs: int = 1
    ring_messages: int = 0
    ring_bytes: int = 0
    ring_full_stalls: int = 0
    gvt_token_rounds: int = 0
    per_pe_busy_seconds: list[float] = field(default_factory=list)

    @property
    def efficiency_ratio(self) -> float:
        """Committed / processed — the fraction of work not wasted."""
        return self.committed / self.processed if self.processed else 1.0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of event allocations served by recycling."""
        total = self.pool_hits + self.pool_allocs
        return self.pool_hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Flat dict for table output."""
        d = {
            "engine": self.engine,
            "n_pes": self.n_pes,
            "n_kps": self.n_kps,
            "committed": self.committed,
            "processed": self.processed,
            "events_rolled_back": self.events_rolled_back,
            "rollbacks": self.rollbacks,
            "false_rollback_events": self.false_rollback_events,
            "stragglers": self.stragglers,
            "cancelled_direct": self.cancelled_direct,
            "cancelled_via_rollback": self.cancelled_via_rollback,
            "lazy_reused": 0,  # no message is ever reused; perfbench/layers.py reads it
            "throttle_adjustments": self.throttle_adjustments,
            "throttle_final_factor": self.throttle_final_factor,
            "local_sends": self.local_sends,
            "remote_sends": self.remote_sends,
            "gvt_rounds": self.gvt_rounds,
            "fossil_collected": self.fossil_collected,
            "pool_hits": self.pool_hits,
            "pool_allocs": self.pool_allocs,
            "pool_hit_rate": self.pool_hit_rate,
            "peak_pending": self.peak_pending,
            "peak_processed": self.peak_processed,
            "makespan_seconds": self.makespan_seconds,
            "event_rate": self.event_rate,
            "total_busy_seconds": self.total_busy_seconds,
            "transport_dropped": self.transport_dropped,
            "transport_duplicated": self.transport_duplicated,
            "transport_delayed": self.transport_delayed,
            "pe_stall_rounds": self.pe_stall_rounds,
            "procs": self.procs,
            "ring_messages": self.ring_messages,
            "ring_bytes": self.ring_bytes,
            "ring_full_stalls": self.ring_full_stalls,
            "gvt_token_rounds": self.gvt_token_rounds,
        }
        return d
