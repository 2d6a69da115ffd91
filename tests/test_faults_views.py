"""Tests for the plan → per-node fault views compilation and the
static/dynamic link-failure split, including topology-level masking."""

import random

import pytest

from repro.faults import (
    CRASH,
    LINK_DOWN,
    LINK_UP,
    RECOVER,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    compile_node_views,
    static_failed_links,
)
from repro.net import Direction, MeshTopology, TorusTopology

E, S, W, N = (
    int(Direction.EAST),
    int(Direction.SOUTH),
    int(Direction.WEST),
    int(Direction.NORTH),
)


def test_static_split_boot_failures_only():
    plan = FaultPlan(
        events=(
            FaultEvent(0, LINK_DOWN, 0, E),  # static: down at 0, never up
            FaultEvent(0, LINK_DOWN, 5, S),  # dynamic: heals later
            FaultEvent(10, LINK_UP, 5, S),
            FaultEvent(3, LINK_DOWN, 7, E),  # dynamic: fails mid-run
        )
    )
    assert static_failed_links(plan) == ((0, E),)


def test_compile_views_masks_both_endpoints():
    topo = TorusTopology(4)
    plan = FaultPlan(
        events=(
            FaultEvent(2, LINK_DOWN, 1, E),
            FaultEvent(8, LINK_UP, 1, E),
        )
    )
    views = compile_node_views(plan, topo)
    peer = topo.neighbor(1, Direction.EAST)
    assert set(views) == {1, peer}
    for step, down in ((1, False), (2, True), (7, True), (8, False)):
        assert views[1].usable(E, step) is not down
        assert views[peer].usable(W, step) is not down
    # The unaffected directions stay usable throughout.
    assert views[1].usable(S, 5)
    assert views[1].mask((True,) * 4, 5) == (True, False, True, True)


def test_compile_views_crash_blackholes_neighbor_links():
    topo = TorusTopology(4)
    plan = FaultPlan(
        events=(FaultEvent(3, CRASH, 5), FaultEvent(9, RECOVER, 5))
    )
    views = compile_node_views(plan, topo)
    assert views[5].crashed(3) and views[5].crashed(8)
    assert not views[5].crashed(2) and not views[5].crashed(9)
    # Every neighbor sees its link toward 5 unusable while 5 is down —
    # sending into a crashed router would silently lose the packet.
    for d in Direction:
        peer = topo.neighbor(5, d)
        toward = int(d.opposite)
        assert not views[peer].usable(toward, 5)
        assert views[peer].usable(toward, 9)


def test_compile_views_static_links_excluded():
    topo = TorusTopology(4)
    plan = FaultPlan(events=(FaultEvent(0, LINK_DOWN, 0, E),))
    static = static_failed_links(plan)
    topo = TorusTopology(4, failed_links=static)
    views = compile_node_views(plan, topo)
    # Static failures live in the topology, not the views.
    assert views == {}
    assert topo.neighbor(0, Direction.EAST) is None
    peer_mask = topo.good_dirs(0, 2)
    assert Direction.EAST not in peer_mask


def test_compile_views_rejects_missing_mesh_edge():
    # Node 3 of a 2x2 mesh has no EAST neighbor; failing that link is a
    # plan/topology mismatch the compile step must catch.
    plan = FaultPlan(events=(FaultEvent(1, LINK_DOWN, 3, E),))
    with pytest.raises(FaultPlanError):
        compile_node_views(plan, MeshTopology(2))


def test_mesh_static_failed_links_reduce_degree():
    plan = FaultPlan(events=(FaultEvent(0, LINK_DOWN, 0, E),))
    topo = MeshTopology(3, failed_links=static_failed_links(plan))
    assert topo.neighbor(0, Direction.EAST) is None
    assert topo.neighbor(1, Direction.WEST) is None
    # Corner 0 of a 3x3 mesh normally has degree 2 (E, S); now 1.
    assert topo.degree(0) == 1


@pytest.mark.parametrize("topo_cls", [TorusTopology, MeshTopology])
def test_route_info_avoids_static_failed_link(topo_cls):
    plan = FaultPlan(events=(FaultEvent(0, LINK_DOWN, 0, E),))
    topo = topo_cls(4, failed_links=static_failed_links(plan))
    # 0 → 5 wants EAST and SOUTH; with 0's EAST link dead only SOUTH
    # remains good, and 0 → 1 (EAST the sole good direction) goes empty.
    good, homerun, _turning, dist = topo.route_info(0, 5)
    assert good == (Direction.SOUTH,)
    assert topo.route_info(0, 1)[0] == ()
    # The far endpoint is masked too; every other source is untouched.
    assert topo.route_info(1, 0)[0] == ()
    assert topo.route_info(4, 5) == topo_cls(4).route_info(4, 5)
    # Home-run hop and distance stay geometric: they ignore failures by
    # design.
    _, healthy_homerun, _, healthy_dist = topo_cls(4).route_info(0, 5)
    assert (homerun, dist) == (healthy_homerun, healthy_dist)


@pytest.mark.parametrize("topo_cls", [TorusTopology, MeshTopology])
def test_route_info_source_with_two_failed_links(topo_cls):
    plan = FaultPlan(
        events=(FaultEvent(0, LINK_DOWN, 0, E), FaultEvent(0, LINK_DOWN, 0, S))
    )
    topo = topo_cls(4, failed_links=static_failed_links(plan))
    assert topo.route_info(0, 5)[0] == ()
    assert topo.route_info(0, 4)[0] == ()
    assert topo.route_info(0, 5)[1:] == topo_cls(4).route_info(0, 5)[1:]
    # Each peer lost only the one link it shares with node 0.
    assert topo.route_info(4, 0)[0] == ()
    assert topo.route_info(4, 5)[0] == (Direction.EAST,)


@pytest.mark.parametrize("topo_cls", [TorusTopology, MeshTopology])
def test_faulted_topology_keeps_no_per_pair_state(topo_cls):
    topo = topo_cls(8, failed_links=[(0, E), (0, S), (27, W), (63, N)])

    def sizes():
        return {
            name: len(value)
            for name, value in vars(topo).items()
            if hasattr(value, "__len__")
        }

    before = sizes()
    rnd = random.Random(5)
    for _ in range(10_000):
        topo.route_info(rnd.randrange(64), rnd.randrange(64))
    # Every container the topology owns was sized at construction.
    assert sizes() == before


def test_interval_queries_match_brute_force():
    plan = FaultPlan(
        events=(
            FaultEvent(2, LINK_DOWN, 1, E),
            FaultEvent(5, LINK_UP, 1, E),
            FaultEvent(9, LINK_DOWN, 1, E),
            FaultEvent(1, CRASH, 1),
            FaultEvent(4, RECOVER, 1),
        )
    )
    views = compile_node_views(plan, TorusTopology(4))
    v = views[1]
    for step in range(0, 15):
        link_down = (2 <= step < 5) or step >= 9
        crashed = 1 <= step < 4
        assert v.usable(E, step) is not link_down
        assert v.crashed(step) is crashed
