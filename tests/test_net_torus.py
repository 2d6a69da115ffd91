"""Unit tests for torus geometry and routing primitives."""

import pytest

from repro.errors import TopologyError
from repro.net.directions import DIRECTIONS, Direction
from repro.net.torus import TorusTopology, _ring_delta
from tests.net_checks import (
    SHAPES,
    assert_route_info_matches_methods_everywhere,
    some_failed_links,
)


def test_dimensions_and_node_count():
    t = TorusTopology(4, 6)
    assert (t.rows, t.cols, t.num_nodes) == (4, 6, 24)


def test_square_default():
    t = TorusTopology(5)
    assert (t.rows, t.cols) == (5, 5)


def test_too_small_raises():
    with pytest.raises(TopologyError):
        TorusTopology(1)


def test_coords_node_id_roundtrip():
    t = TorusTopology(4, 6)
    for node in range(t.num_nodes):
        r, c = t.coords(node)
        assert t.node_id(r, c) == node


def test_coords_out_of_range():
    t = TorusTopology(3)
    with pytest.raises(TopologyError):
        t.coords(9)
    with pytest.raises(TopologyError):
        t.coords(-1)


def test_neighbor_matches_paper_formula():
    # §3.1.3: eastward send from lp is ((lp // C) * C) + ((lp + 1) % C).
    t = TorusTopology(32)
    for lp in (0, 31, 32, 1023, 500):
        expected = ((lp // 32) * 32) + ((lp + 1) % 32)
        assert t.neighbor(lp, Direction.EAST) == expected


def test_neighbor_wraps_all_edges():
    t = TorusTopology(3)
    assert t.neighbor(0, Direction.NORTH) == 6  # top wraps to bottom row
    assert t.neighbor(0, Direction.WEST) == 2  # left wraps to right col
    assert t.neighbor(8, Direction.SOUTH) == 2
    assert t.neighbor(8, Direction.EAST) == 6


def test_neighbor_relation_is_symmetric():
    t = TorusTopology(4, 5)
    for node in range(t.num_nodes):
        for d in DIRECTIONS:
            assert t.neighbor(t.neighbor(node, d), d.opposite) == node


def test_neighbors_tuple_matches_individual():
    t = TorusTopology(4)
    for node in range(t.num_nodes):
        assert t.neighbors(node) == tuple(t.neighbor(node, d) for d in DIRECTIONS)


# ----------------------------------------------------------------------
# Ring delta / distance.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "src,dst,size,expected",
    [
        (0, 0, 8, 0),
        (0, 3, 8, 3),
        (0, 5, 8, -3),
        (0, 4, 8, 4),  # antipodal tie goes positive
        (6, 1, 8, 3),
        (0, 3, 7, 3),
        (0, 4, 7, -3),
    ],
)
def test_ring_delta(src, dst, size, expected):
    assert _ring_delta(src, dst, size) == expected


def test_distance_zero_iff_same_node():
    t = TorusTopology(5)
    for node in range(t.num_nodes):
        assert t.distance(node, node) == 0


def test_distance_symmetric():
    t = TorusTopology(6)
    for a in range(0, t.num_nodes, 5):
        for b in range(t.num_nodes):
            assert t.distance(a, b) == t.distance(b, a)


def test_distance_uses_wraparound():
    t = TorusTopology(8)
    a = t.node_id(0, 0)
    b = t.node_id(0, 7)
    assert t.distance(a, b) == 1  # around the edge, not 7 across


def test_diameter():
    assert TorusTopology(8).diameter() == 8
    assert TorusTopology(3).diameter() == 2


# ----------------------------------------------------------------------
# Good links.
# ----------------------------------------------------------------------
def test_good_dirs_empty_at_destination():
    t = TorusTopology(6)
    assert t.good_dirs(7, 7) == ()


def test_good_dirs_decrease_distance_by_one():
    t = TorusTopology(6)
    for src in range(t.num_nodes):
        for dst in range(t.num_nodes):
            for d in t.good_dirs(src, dst):
                assert t.distance(t.neighbor(src, d), dst) == t.distance(src, dst) - 1


def test_non_good_dirs_do_not_decrease_distance():
    t = TorusTopology(5)
    for src in range(t.num_nodes):
        for dst in range(t.num_nodes):
            good = set(t.good_dirs(src, dst))
            for d in DIRECTIONS:
                if d not in good:
                    assert (
                        t.distance(t.neighbor(src, d), dst)
                        >= t.distance(src, dst)
                    )


def test_good_dirs_horizontal_first():
    t = TorusTopology(8)
    dirs = t.good_dirs(t.node_id(0, 0), t.node_id(2, 2))
    assert dirs == (Direction.EAST, Direction.SOUTH)


def test_good_dirs_antipodal_column_offers_both():
    t = TorusTopology(8)
    dirs = t.good_dirs(t.node_id(0, 0), t.node_id(0, 4))
    assert Direction.EAST in dirs and Direction.WEST in dirs


# ----------------------------------------------------------------------
# Home-run paths.
# ----------------------------------------------------------------------
def test_homerun_row_phase_first():
    t = TorusTopology(8)
    src = t.node_id(1, 1)
    dst = t.node_id(4, 3)
    assert t.homerun_dir(src, dst) == Direction.EAST


def test_homerun_column_phase_after_turn():
    t = TorusTopology(8)
    src = t.node_id(1, 3)
    dst = t.node_id(4, 3)
    assert t.homerun_dir(src, dst) == Direction.SOUTH


def test_homerun_none_at_destination():
    t = TorusTopology(8)
    assert t.homerun_dir(5, 5) is None


def test_homerun_path_has_one_bend_and_right_length():
    t = TorusTopology(9)
    for src in (0, 13, 44):
        for dst in range(t.num_nodes):
            if src == dst:
                continue
            node, hops, phases = src, 0, []
            while node != dst:
                d = t.homerun_dir(node, dst)
                if not phases or phases[-1] != d.is_horizontal:
                    phases.append(d.is_horizontal)
                node = t.neighbor(node, d)
                hops += 1
                assert hops <= t.diameter(), "home-run path too long"
            assert hops == t.distance(src, dst)
            # Row phase (horizontal) strictly before column phase: at most
            # one bend, never horizontal after vertical.
            assert phases in ([True], [False], [True, False])


def test_is_turning_only_in_destination_column():
    t = TorusTopology(8)
    dst = t.node_id(4, 3)
    assert t.is_turning(t.node_id(1, 3), dst)  # right column, wrong row
    assert not t.is_turning(t.node_id(1, 2), dst)  # wrong column
    assert not t.is_turning(dst, dst)  # already there


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("rows,cols", SHAPES)
def test_route_info_equals_the_four_methods_for_every_pair(rows, cols, faulted):
    failed = some_failed_links(rows, cols) if faulted else ()
    t = TorusTopology(rows, cols, failed_links=failed)
    assert_route_info_matches_methods_everywhere(t)


def test_route_info_shares_entries_between_equal_ring_moves():
    # Raw displacements d and d ± size are the same move on the ring, so
    # the table holds one entry per (row move, column move): N² of them.
    t = TorusTopology(5, 7)
    assert len(t._route_table) == (2 * 5 - 1) * (2 * 7 - 1)
    assert len({id(info) for info in t._route_table}) == 5 * 7
