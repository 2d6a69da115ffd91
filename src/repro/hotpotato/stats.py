"""Per-router statistics and their aggregation.

"Each router keeps track of the total number of packets that were delivered
to it, how long the packets were in transit and how far they came ... the
amount of time that each injected packet waited to be injected, the total
number of packets that were injected into the system and the longest time
that any packet had to wait to be injected." (§3.1.5)

Every counter lives in router state and is updated *reversibly* by the
event handlers, so rolled-back statistics unwind exactly.  Aggregation
happens once at the end of the run, visitor-style; :func:`model_lines`
is the block of them both CLIs print.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

__all__ = [
    "RouterStats", "aggregate_router_stats", "model_lines", "stats_from_signature",
]


class RouterStats:
    """Reversible per-router counters."""

    __slots__ = (
        "delivered",
        "total_delivery_time",
        "total_distance",
        "max_delivery_time",
        "delivered_by_priority",
        "injected",
        "total_inject_wait",
        "max_inject_wait",
        "inject_blocked",
        "initial_packets",
        "routes",
        "overflow_routes",
        "deflections",
        "upgrades_sleeping",
        "upgrades_active",
        "promotions_running",
        "demotions",
        "running_deflections_off_turn",
        "util_claimed",
        "util_samples",
        "fault_dropped_crash",
        "fault_dropped_no_link",
        "fault_deflections",
    )

    def __init__(self) -> None:
        #: Packets absorbed at this router.
        self.delivered = 0
        #: Sum of (delivery step - injection step) over absorbed packets.
        self.total_delivery_time = 0
        #: Sum of source-destination distances of absorbed packets.
        self.total_distance = 0
        self.max_delivery_time = 0
        #: Absorbed packets by priority state at absorption.
        self.delivered_by_priority = [0, 0, 0, 0]
        #: Packets this router's injection application injected.
        self.injected = 0
        #: Sum of (injection step - generation step).
        self.total_inject_wait = 0
        self.max_inject_wait = 0
        #: Injection attempts blocked because no output link was free.
        self.inject_blocked = 0
        #: Packets seeded by the initial network fill.
        self.initial_packets = 0
        #: ROUTE decisions made.
        self.routes = 0
        #: Routes taken in a transiently-impossible state (more packets
        #: than links) — observable, if at all, only mid-speculation, while
        #: a withdrawn arrival's anti-message is in flight (see the ROUTE
        #: handler in :mod:`repro.hotpotato.handlers`); must be 0 in every
        #: committed timeline.
        self.overflow_routes = 0
        #: Routes that did not advance the packet toward its destination.
        self.deflections = 0
        self.upgrades_sleeping = 0
        self.upgrades_active = 0
        self.promotions_running = 0
        #: Excited/Running packets knocked back to Active.
        self.demotions = 0
        #: Running packets deflected while NOT turning — the theory says
        #: this cannot happen in steady state; counted as a diagnostic.
        self.running_deflections_off_turn = 0
        #: HEARTBEAT link-utilisation sampling (claimed links / sampled).
        self.util_claimed = 0
        self.util_samples = 0
        #: Packets lost because they arrived at a crashed router.
        self.fault_dropped_crash = 0
        #: Packets lost because every surviving output link was faulted
        #: (bufferless routers cannot hold a packet a whole step).
        self.fault_dropped_no_link = 0
        #: Deflections a healthy mask would not have caused: some good
        #: direction was contention-free but fault-masked.
        self.fault_deflections = 0

    # ------------------------------------------------------------------
    def copy(self) -> "RouterStats":
        """Cheap explicit copy (used by state-saving snapshots)."""
        c = RouterStats.__new__(RouterStats)
        for name in RouterStats.__slots__:
            v = getattr(self, name)
            setattr(c, name, list(v) if isinstance(v, list) else v)
        return c

    def signature(self) -> tuple:
        """Deterministic tuple of every counter (for equality checks),
        in slot order, the one list counter as a tuple."""
        v = _counters(self)
        return v[:_BY_PRIORITY] + (tuple(v[_BY_PRIORITY]),) + v[_BY_PRIORITY + 1:]


# Every counter in one C call: each run takes one signature per router on
# exit, and process mode ships every router's back as one.
_counters = attrgetter(*RouterStats.__slots__)
_BY_PRIORITY = RouterStats.__slots__.index("delivered_by_priority")


def stats_from_signature(sig: tuple) -> RouterStats:
    """Rebuild a :class:`RouterStats` from :meth:`RouterStats.signature`.

    The multiprocess runtime ships per-router counters back from worker
    processes as signatures; this is the receiving end.
    """
    s = RouterStats.__new__(RouterStats)
    for name, v in zip(RouterStats.__slots__, sig):
        setattr(s, name, list(v) if isinstance(v, tuple) else v)
    return s


def aggregate_router_stats(routers: list) -> dict[str, Any]:
    """Fold per-router stats into the run-level dict the figures use.

    ``routers`` is the final LP list; each LP exposes ``.stats`` (a
    :class:`RouterStats`).  This is the report's "statistics collection
    function" (§3.1.5) executed once per LP at the end of the run.
    """
    totals = RouterStats()
    per_router: list[tuple] = []
    for lp in routers:
        s: RouterStats = lp.stats
        totals.delivered += s.delivered
        totals.total_delivery_time += s.total_delivery_time
        totals.total_distance += s.total_distance
        totals.max_delivery_time = max(totals.max_delivery_time, s.max_delivery_time)
        for i in range(4):
            totals.delivered_by_priority[i] += s.delivered_by_priority[i]
        totals.injected += s.injected
        totals.total_inject_wait += s.total_inject_wait
        totals.max_inject_wait = max(totals.max_inject_wait, s.max_inject_wait)
        totals.inject_blocked += s.inject_blocked
        totals.initial_packets += s.initial_packets
        totals.routes += s.routes
        totals.overflow_routes += s.overflow_routes
        totals.deflections += s.deflections
        totals.upgrades_sleeping += s.upgrades_sleeping
        totals.upgrades_active += s.upgrades_active
        totals.promotions_running += s.promotions_running
        totals.demotions += s.demotions
        totals.running_deflections_off_turn += s.running_deflections_off_turn
        totals.util_claimed += s.util_claimed
        totals.util_samples += s.util_samples
        totals.fault_dropped_crash += s.fault_dropped_crash
        totals.fault_dropped_no_link += s.fault_dropped_no_link
        totals.fault_deflections += s.fault_deflections
        per_router.append(s.signature())

    delivered = totals.delivered
    injected = totals.injected
    return {
        "delivered": delivered,
        "injected": injected,
        "initial_packets": totals.initial_packets,
        "avg_delivery_time": (
            totals.total_delivery_time / delivered if delivered else 0.0
        ),
        "avg_distance": totals.total_distance / delivered if delivered else 0.0,
        "max_delivery_time": totals.max_delivery_time,
        "delivered_by_priority": tuple(totals.delivered_by_priority),
        "avg_inject_wait": (
            totals.total_inject_wait / injected if injected else 0.0
        ),
        "max_inject_wait": totals.max_inject_wait,
        "inject_blocked": totals.inject_blocked,
        "routes": totals.routes,
        "overflow_routes": totals.overflow_routes,
        "deflections": totals.deflections,
        "deflection_rate": totals.deflections / totals.routes if totals.routes else 0.0,
        "upgrades_sleeping": totals.upgrades_sleeping,
        "upgrades_active": totals.upgrades_active,
        "promotions_running": totals.promotions_running,
        "demotions": totals.demotions,
        "running_deflections_off_turn": totals.running_deflections_off_turn,
        "link_utilization": (
            totals.util_claimed / totals.util_samples if totals.util_samples else 0.0
        ),
        "fault_dropped_crash": totals.fault_dropped_crash,
        "fault_dropped_no_link": totals.fault_dropped_no_link,
        "fault_dropped": totals.fault_dropped_crash + totals.fault_dropped_no_link,
        "fault_deflections": totals.fault_deflections,
        # Full per-router fingerprint: one misplaced rollback anywhere in
        # the network makes this differ (the determinism tests rely on it).
        "per_router": tuple(per_router),
    }


def model_lines(result, extra: tuple[str, ...] = ()) -> list[str]:
    """The model block ``repro.hotpotato`` prints: events committed, the
    adversary line when one ran, ``extra`` (the caller's engine lines),
    then the seven packet lines."""
    ms = result.model_stats
    lines = [f"  events committed   : {result.run.committed:,}"]
    if "adversary" in ms:
        lines.append(
            f"  adversary          : {ms['adversary']} "
            f"({ms['adversary_generated']:,} scripted injections)"
        )
    return lines + list(extra) + [
        f"  packets injected   : {ms['injected']:,} (+{ms['initial_packets']} initial)",
        f"  packets delivered  : {ms['delivered']:,}",
        f"  avg delivery time  : {ms['avg_delivery_time']:.3f} steps",
        f"  max delivery time  : {ms['max_delivery_time']} steps",
        f"  avg wait to inject : {ms['avg_inject_wait']:.3f} steps",
        f"  max wait to inject : {ms['max_inject_wait']} steps",
        f"  deflection rate    : {100 * ms['deflection_rate']:.2f}%",
    ]
