"""The router handlers on mesh boundaries: degree-2 corners and degree-3 edges.

The torus harness in ``test_hotpotato_router.py`` only ever exercises
degree-4 routers; on a mesh the boundary nodes have missing links, and
every handler must treat a missing direction as permanently claimed —
never seed it, never route onto it, never count it in utilisation.
"""

from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.packet import Priority
from repro.hotpotato.router import ARRIVE, HEARTBEAT, INIT, INJECT, ROUTE
from repro.hotpotato.stats import RouterStats
from repro.net import Direction
from tests.router_harness import (
    claim,
    execute,
    make_router,
    state_of,
    undo,
)
from tests.router_harness import packet

N_, E_, S_, W_ = (
    int(Direction.NORTH),
    int(Direction.EAST),
    int(Direction.SOUTH),
    int(Direction.WEST),
)


def make_lp(node, n=3, **cfg_kwargs):
    return make_router(node, HotPotatoConfig(n=n, topology="mesh", **cfg_kwargs))


def packet_data(step, dest, priority=Priority.ACTIVE, **fields):
    return packet(step, dest, priority, **fields)


def test_corner_exists_mask_matches_degree():
    lp, _, topo = make_lp(0)  # top-left corner of 3x3: E and S only
    assert lp.exists == (False, True, True, False)
    assert topo.degree(0) == 2
    edge_lp, _, _ = make_lp(1)  # top edge: E, S, W
    assert edge_lp.exists == (False, True, True, True)


def test_corner_free_mask_never_reports_missing_links():
    # A degree-2 corner's free links are E and S only: with E claimed the
    # injection leaves over S, and with S claimed too it is blocked —
    # the missing N and W links never count as free.
    lp, sends, topo = make_lp(0)
    lp.links[lp.base + E_] = 0  # claimed this step
    execute(lp, INJECT, 0, ts=0.9)
    (arrive,) = [e for e in sends if e.kind == ARRIVE]
    assert arrive.dst == topo.neighbor(0, Direction.SOUTH)
    sends.clear()
    claim(lp, [-1, 1, 1, -1])
    execute(lp, INJECT, 1, ts=1.9)
    assert [e.kind for e in sends] == [INJECT]
    assert lp.stats.inject_blocked == 1


def test_init_seeds_only_existing_links():
    lp, sends, topo = make_lp(0, initial_fill=1.0)
    execute(lp, INIT, {}, ts=0.0)
    # Full fill on a degree-2 corner seeds exactly two packets (plus the
    # self-scheduled first INJECT), and they go to the real neighbors.
    arrives = [ev for ev in sends if ev.kind == ARRIVE]
    assert len(arrives) == 2
    dsts = sorted(ev.dst for ev in arrives)
    assert dsts == sorted(
        topo.neighbor(0, d) for d in (Direction.EAST, Direction.SOUTH)
    )


def test_corner_route_only_good_dir_busy_deflects_onto_real_link():
    # Corner 0 → dest 2 (same row): EAST is the only good direction.
    # With EAST claimed, the bufferless router must deflect — and the
    # only legal output is SOUTH, never a missing N/W link.
    lp, sends, topo = make_lp(0)
    assert topo.route_info(0, 2)[0] == (Direction.EAST,)
    lp.links[lp.base + E_] = 4  # claimed at this step
    ev = execute(lp, ROUTE, packet_data(step=4, dest=2), ts=4.6)
    (arrive,) = sends
    assert arrive.dst == topo.neighbor(0, Direction.SOUTH)
    assert lp.stats.deflections == 1
    assert lp.stats.overflow_routes == 0
    undo(lp, ev)
    assert lp.stats.signature() == RouterStats().signature()


def test_corner_route_reverse_restores_exactly():
    lp, sends, topo = make_lp(0)
    before = state_of(lp)
    ev = execute(lp, ROUTE, packet_data(step=2, dest=8), ts=2.6)
    assert sends  # routed somewhere real
    assert sends[0].dst in (topo.neighbor(0, Direction.EAST), topo.neighbor(0, Direction.SOUTH))
    undo(lp, ev)
    assert state_of(lp) == before


def test_corner_inject_blocked_when_both_links_claimed():
    lp, sends, _ = make_lp(0)
    lp.links[lp.base + E_] = 3
    lp.links[lp.base + S_] = 3
    before = state_of(lp)
    ev = execute(lp, INJECT, 3, ts=3.9)
    assert lp.stats.inject_blocked == 1
    assert lp.stats.injected == 0
    # Only the self-rescheduled INJECT went out, no ARRIVE.
    assert [e.kind for e in sends] == [INJECT]
    undo(lp, ev)
    assert state_of(lp) == before


def test_corner_inject_uses_existing_link():
    lp, sends, topo = make_lp(0)
    ev = execute(lp, INJECT, 3, ts=3.9)
    assert lp.stats.injected == 1
    arrives = [e for e in sends if e.kind == ARRIVE]
    assert len(arrives) == 1
    assert arrives[0].dst in (
        topo.neighbor(0, Direction.EAST),
        topo.neighbor(0, Direction.SOUTH),
    )
    undo(lp, ev)
    assert lp.stats.injected == 0


def test_heartbeat_samples_degree_not_four():
    lp, _, _ = make_lp(0, heartbeat=True)
    lp.links[lp.base + E_] = 6
    ev = execute(lp, HEARTBEAT, 6, ts=6.95)
    assert lp.stats.util_samples == 2  # degree-2 corner, not 4
    assert lp.stats.util_claimed == 1
    undo(lp, ev)
    assert lp.stats.util_samples == 0 and lp.stats.util_claimed == 0


def test_edge_node_routes_never_use_missing_north():
    # Top-edge node 1 (degree 3, missing NORTH): hammer ROUTE with many
    # destinations and claimed-link patterns; no ARRIVE may target a
    # NORTH neighbor (there is none).
    lp, sends, topo = make_lp(1)
    for dest in (0, 2, 3, 5, 6, 7, 8):
        for claimed in ((), (E_,), (W_,), (E_, W_), (S_,)):
            sends.clear()
            claim(lp, [9 if d in claimed else -1 for d in range(4)])
            execute(lp, ROUTE, packet_data(step=9, dest=dest), ts=9.6)
            (arrive,) = sends
            legal = {
                topo.neighbor(1, d)
                for d in (Direction.EAST, Direction.SOUTH, Direction.WEST)
            }
            assert arrive.dst in legal
    assert lp.stats.overflow_routes == 0
