"""Unit tests for RouterStats and the aggregation visitor."""

from repro.hotpotato.stats import (
    RouterStats,
    aggregate_router_stats,
    stats_from_signature,
)


class FakeLP:
    def __init__(self, stats):
        self.stats = stats


def test_initial_counters_zero():
    s = RouterStats()
    assert s.delivered == 0
    assert s.delivered_by_priority == [0, 0, 0, 0]
    assert s.signature()[0] == 0


def test_copy_is_deep_for_lists():
    s = RouterStats()
    s.delivered_by_priority[2] = 5
    c = s.copy()
    c.delivered_by_priority[2] = 9
    assert s.delivered_by_priority[2] == 5
    assert c.delivered == s.delivered


def test_signature_covers_every_slot():
    s = RouterStats()
    sig0 = s.signature()
    assert len(sig0) == len(RouterStats.__slots__)
    s.routes += 1
    assert s.signature() != sig0


def test_signature_equality_semantics():
    a, b = RouterStats(), RouterStats()
    assert a.signature() == b.signature()
    a.max_inject_wait = 3
    assert a.signature() != b.signature()


def test_populated_signature_round_trips():
    s = RouterStats()
    for i, name in enumerate(RouterStats.__slots__):
        if name != "delivered_by_priority":
            setattr(s, name, 100 + i)
    s.delivered_by_priority = [3, 1, 4, 1]
    sig = s.signature()
    assert sig == tuple(
        tuple(v) if isinstance(v, list) else v
        for v in (getattr(s, name) for name in RouterStats.__slots__)
    )
    back = stats_from_signature(sig)
    assert back.signature() == sig
    assert back.delivered_by_priority == [3, 1, 4, 1]
    back.delivered_by_priority[0] += 1
    assert s.delivered_by_priority[0] == 3


def test_aggregate_totals_and_averages():
    a, b = RouterStats(), RouterStats()
    a.delivered, a.total_delivery_time, a.total_distance = 2, 10, 6
    a.max_delivery_time = 7
    a.delivered_by_priority = [2, 0, 0, 0]
    b.delivered, b.total_delivery_time, b.total_distance = 3, 5, 9
    b.max_delivery_time = 4
    b.delivered_by_priority = [1, 2, 0, 0]
    a.injected, a.total_inject_wait, a.max_inject_wait = 4, 8, 5
    b.injected = 0
    out = aggregate_router_stats([FakeLP(a), FakeLP(b)])
    assert out["delivered"] == 5
    assert out["avg_delivery_time"] == 3.0
    assert out["avg_distance"] == 3.0
    assert out["max_delivery_time"] == 7
    assert out["delivered_by_priority"] == (3, 2, 0, 0)
    assert out["injected"] == 4
    assert out["avg_inject_wait"] == 2.0
    assert out["max_inject_wait"] == 5
    assert len(out["per_router"]) == 2


def test_aggregate_empty_division_guards():
    out = aggregate_router_stats([FakeLP(RouterStats())])
    assert out["avg_delivery_time"] == 0.0
    assert out["avg_inject_wait"] == 0.0
    assert out["deflection_rate"] == 0.0
    assert out["link_utilization"] == 0.0


def test_aggregate_deflection_rate():
    s = RouterStats()
    s.routes, s.deflections = 10, 3
    out = aggregate_router_stats([FakeLP(s)])
    assert out["deflection_rate"] == 0.3
