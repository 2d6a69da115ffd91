"""Handler-level tests for the router: the table's effects and exact reverses."""

import pytest

from repro.faults import CRASH, FaultEvent, FaultPlan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.packet import Priority
from repro.hotpotato.router import (
    ARRIVE,
    HEARTBEAT,
    INIT,
    INJECT,
    P_DEST,
    P_INJECT_STEP,
    P_PRIORITY,
    P_STEP,
    ROUTE,
)
from repro.net import Direction
from repro.scenarios.adversary import InjectionEvent, InjectionPlan
from tests.router_harness import (
    claim,
    execute,
    make_router,
    own_links,
    state_of,
    undo,
)
from tests.router_harness import packet as packet_data


@pytest.fixture
def setup():
    cfg = HotPotatoConfig(n=4, duration=50.0)
    lp, sends, topo = make_router(5, cfg)
    return lp, sends, topo, cfg


# ----------------------------------------------------------------------
# ARRIVE.
# ----------------------------------------------------------------------
def test_arrive_at_destination_absorbs_and_records(setup):
    lp, sends, topo, cfg = setup
    data = packet_data(step=7, dest=lp.id, priority=Priority.ACTIVE, inject_step=2, distance=3)
    execute(lp, ARRIVE, data, ts=7.25)
    assert lp.stats.delivered == 1
    assert lp.stats.total_delivery_time == 5
    assert lp.stats.total_distance == 3
    assert lp.stats.max_delivery_time == 5
    assert lp.stats.delivered_by_priority[int(Priority.ACTIVE)] == 1
    assert sends == []  # absorbed packets go nowhere


def test_arrive_elsewhere_schedules_route_with_priority_stagger(setup):
    lp, sends, topo, cfg = setup
    for prio, rank in [(Priority.RUNNING, 0), (Priority.SLEEPING, 3)]:
        sends.clear()
        data = packet_data(step=7, dest=lp.id + 1, priority=prio, jitter=0.5)
        execute(lp, ARRIVE, data, ts=7.5)
        (route,) = sends
        assert route.kind == ROUTE
        assert route.dst == lp.id
        assert route.ts == pytest.approx(7 + 0.6 + 0.05 * rank + 0.04 * 0.5)
        # All ROUTE stamps stay inside the step, before INJECT at +0.9.
        assert 7.6 <= route.ts < 7.9


def test_sleeping_packet_not_absorbed_in_proof_mode():
    cfg = HotPotatoConfig(n=4, duration=50.0, absorb_sleeping=False)
    lp, sends, _ = make_router(5, cfg)
    data = packet_data(step=3, dest=lp.id, priority=Priority.SLEEPING)
    execute(lp, ARRIVE, data, ts=3.25)
    assert lp.stats.delivered == 0
    assert len(sends) == 1 and sends[0].kind == ROUTE


def test_active_packet_absorbed_even_in_proof_mode():
    cfg = HotPotatoConfig(n=4, duration=50.0, absorb_sleeping=False)
    lp, sends, _ = make_router(5, cfg)
    data = packet_data(step=3, dest=lp.id, priority=Priority.ACTIVE)
    execute(lp, ARRIVE, data, ts=3.25)
    assert lp.stats.delivered == 1


def test_arrive_reverse_restores_exactly(setup):
    lp, sends, topo, cfg = setup
    before = state_of(lp)
    ev = execute(lp, ARRIVE, packet_data(step=7, dest=lp.id, priority=Priority.ACTIVE), ts=7.25)
    undo(lp, ev)
    assert state_of(lp) == before


# ----------------------------------------------------------------------
# ROUTE.
# ----------------------------------------------------------------------
def test_route_claims_link_and_forwards(setup):
    lp, sends, topo, cfg = setup
    dest = topo.neighbor(topo.neighbor(lp.id, Direction.EAST), Direction.EAST)
    ev = execute(lp, ROUTE, packet_data(step=4, dest=dest), ts=4.75)
    assert own_links(lp)[Direction.EAST] == 4
    (arrive,) = sends
    assert arrive.kind == ARRIVE
    assert arrive.dst == topo.neighbor(lp.id, Direction.EAST)
    assert arrive.data[P_STEP] == 5
    assert arrive.ts == pytest.approx(5.25)
    assert lp.stats.routes == 1


def test_route_respects_claimed_links(setup):
    lp, sends, topo, cfg = setup
    dest = topo.neighbor(lp.id, Direction.EAST)
    lp.links[lp.base + Direction.EAST] = 4  # claimed this step
    ev = execute(lp, ROUTE, packet_data(step=4, dest=dest, priority=Priority.ACTIVE), ts=4.7)
    (arrive,) = sends
    assert arrive.dst != dest  # deflected somewhere else
    assert lp.stats.deflections == 1


def test_route_with_no_free_link_overflows_reversibly(setup):
    # A transiently-impossible state (at most reachable mid-speculation,
    # see the ROUTE handler's guard in repro.hotpotato.handlers): the
    # router routes anyway, counts the overflow, and the whole thing
    # reverses exactly.
    lp, sends, topo, cfg = setup
    before_links = [9, 9, 9, 9]
    claim(lp, before_links)
    before = state_of(lp)
    ev = execute(lp, ROUTE, packet_data(step=9, dest=0), ts=9.7)
    assert lp.stats.overflow_routes == 1
    assert lp.stats.routes == 1
    assert len(sends) == 1  # the packet still goes somewhere
    undo(lp, ev)
    assert state_of(lp) == before
    assert own_links(lp) == before_links


def test_route_reverse_restores_exactly(setup):
    lp, sends, topo, cfg = setup
    dest = topo.node_id(2, 2)
    before = state_of(lp)
    ev = execute(lp, ROUTE, packet_data(step=4, dest=dest), ts=4.75)
    assert state_of(lp) != before
    undo(lp, ev)
    assert state_of(lp) == before


def test_route_reverse_after_upgrade_restores_stats():
    cfg = HotPotatoConfig(n=4, duration=50.0, sleeping_upgrade_scale=1e-9)
    lp, sends, topo = make_router(5, cfg)
    dest = topo.node_id(2, 2)
    before = state_of(lp)
    ev = execute(lp, ROUTE, packet_data(step=4, dest=dest), ts=4.75)
    assert lp.stats.upgrades_sleeping == 1
    undo(lp, ev)
    assert state_of(lp) == before


# ----------------------------------------------------------------------
# INJECT.
# ----------------------------------------------------------------------
def test_inject_sends_packet_and_chains(setup):
    lp, sends, topo, cfg = setup
    ev = execute(lp, INJECT, 0, ts=0.9)
    kinds = sorted(e.kind for e in sends)
    assert kinds == sorted([INJECT, ARRIVE])
    assert lp.stats.injected == 1
    assert lp.head_gen[lp.id] == 1
    assert lp.stats.total_inject_wait == 0  # injected the step it was born
    arrive = next(e for e in sends if e.kind == ARRIVE)
    assert arrive.data[P_PRIORITY] == int(Priority.SLEEPING)
    assert arrive.data[P_INJECT_STEP] == 0
    assert arrive.data[P_DEST] != lp.id


def test_inject_blocked_when_all_links_claimed(setup):
    lp, sends, topo, cfg = setup
    claim(lp, [3, 3, 3, 3])
    execute(lp, INJECT, 3, ts=3.9)
    assert lp.stats.injected == 0
    assert lp.stats.inject_blocked == 1
    assert [e.kind for e in sends] == [INJECT]  # only the chain continues


def test_inject_wait_measured_from_generation(setup):
    lp, sends, topo, cfg = setup
    claim(lp, [5, 5, 5, 5])
    execute(lp, INJECT, 5, ts=5.9)  # blocked
    assert own_links(lp) == [5, 5, 5, 5]  # still claimed for step 5, free at 6
    execute(lp, INJECT, 6, ts=6.9)
    assert lp.stats.injected == 1
    assert lp.stats.total_inject_wait == 6  # head generated at step 0
    assert lp.stats.max_inject_wait == 6


def test_inject_nothing_pending(setup):
    lp, sends, topo, cfg = setup
    lp.head_gen[lp.id] = 1  # already injected the step-0 packet
    execute(lp, INJECT, 0, ts=0.9)
    assert lp.stats.injected == 0
    assert [e.kind for e in sends] == [INJECT]


@pytest.mark.parametrize("blocked", [False, True])
def test_inject_reverse_restores_exactly(setup, blocked):
    lp, sends, topo, cfg = setup
    if blocked:
        claim(lp, [2, 2, 2, 2])
    before = state_of(lp)
    ev = execute(lp, INJECT, 2, ts=2.9)
    undo(lp, ev)
    assert state_of(lp) == before


# ----------------------------------------------------------------------
# INJECT with an adversary script: the same handler, generation scripted.
# ----------------------------------------------------------------------
SCRIPT_DEST = 7


def scripted_router(topology, *, crashed=False):
    """Router 0 (a degree-2 corner on the mesh) whose adversary generates
    one packet for ``SCRIPT_DEST`` at step 2 and one at step 6."""
    plan = InjectionPlan(entries=(
        InjectionEvent(step=2, node=0, dest=SCRIPT_DEST),
        InjectionEvent(step=6, node=0, dest=SCRIPT_DEST),
    ))
    faults = FaultPlan(events=(FaultEvent(1, CRASH, 0),)) if crashed else None
    cfg = HotPotatoConfig(n=3, duration=50.0, topology=topology)
    lp, sends, _ = make_router(0, cfg, injection_plan=plan, fault_plan=faults)
    assert lp.adversary == ((2, SCRIPT_DEST), (6, SCRIPT_DEST))
    assert (lp.faults is not None) == crashed
    return lp, sends


@pytest.mark.parametrize("topology", ["torus", "mesh"], ids=["torus", "mesh-corner"])
@pytest.mark.parametrize(
    "case", ["injected", "blocked", "not-due", "exhausted", "crashed"]
)
def test_scripted_inject_reverse_restores_exactly(topology, case):
    lp, sends = scripted_router(topology, crashed=case == "crashed")
    if case == "blocked":
        claim(lp, [3, 3, 3, 3])
    elif case == "not-due":
        lp.head_gen[lp.id] = 1  # next generation is step 6
    elif case == "exhausted":
        lp.head_gen[lp.id] = 2
    before = state_of(lp)
    ev = execute(lp, INJECT, 3, ts=3.9)
    st = lp.stats
    if case == "injected":
        arrive = next(e for e in sends if e.kind == ARRIVE)
        assert arrive.data[P_DEST] == SCRIPT_DEST  # scripted, not drawn
        assert arrive.data[P_INJECT_STEP] == 3
        assert ev.rng_draws == 1  # the arrival jitter only
        assert (st.injected, st.total_inject_wait) == (1, 1)  # generated at 2
        assert lp.head_gen[lp.id] == 1
    else:
        assert [e.kind for e in sends] == [INJECT]  # only the chain continues
        assert ev.rng_draws == 0
        assert st.injected == 0
        assert st.inject_blocked == (case == "blocked")
    undo(lp, ev)
    assert state_of(lp) == before


# ----------------------------------------------------------------------
# INIT and HEARTBEAT.
# ----------------------------------------------------------------------
def test_init_fills_all_links_and_chains_inject(setup):
    lp, sends, topo, cfg = setup
    ev = execute(lp, INIT, {}, ts=0.1)
    assert own_links(lp) == [0, 0, 0, 0]
    arrives = [e for e in sends if e.kind == ARRIVE]
    assert len(arrives) == 4
    assert {e.dst for e in arrives} == set(topo.neighbors(lp.id))
    assert lp.stats.initial_packets == 4
    assert any(e.kind == INJECT for e in sends)


def test_init_zero_fill():
    cfg = HotPotatoConfig(n=4, duration=50.0, initial_fill=0.0)
    lp, sends, topo = make_router(5, cfg)
    execute(lp, INIT, {}, ts=0.1)
    assert own_links(lp) == [-1, -1, -1, -1]
    assert lp.stats.initial_packets == 0


def test_init_reverse_restores_exactly(setup):
    lp, sends, topo, cfg = setup
    before = state_of(lp)
    ev = execute(lp, INIT, {}, ts=0.1)
    undo(lp, ev)
    assert state_of(lp) == before


def test_heartbeat_samples_utilization(setup):
    lp, sends, topo, cfg = setup
    claim(lp, [6, 6, -1, 2])  # two links claimed at step 6
    ev = execute(lp, HEARTBEAT, 6, ts=6.95)
    assert lp.stats.util_claimed == 2
    assert lp.stats.util_samples == 4
    assert [e.kind for e in sends] == [HEARTBEAT]
    undo(lp, ev)
    assert lp.stats.util_claimed == 0
    assert lp.stats.util_samples == 0


# ----------------------------------------------------------------------
# Snapshots (state-saving strategy hooks).
# ----------------------------------------------------------------------
def test_snapshot_restore_roundtrip(setup):
    lp, sends, topo, cfg = setup
    execute(lp, INIT, {}, ts=0.1)
    snap = lp.snapshot_state()
    execute(lp, INJECT, 1, ts=1.9)
    lp.restore_state(snap)
    assert own_links(lp) == [0, 0, 0, 0]
    assert lp.head_gen[lp.id] == 0
    assert lp.stats.injected == 0
    assert lp.stats.initial_packets == 4
