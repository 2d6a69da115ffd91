"""Unit tests for mesh (non-wrapping) geometry."""

import pytest

from repro.errors import TopologyError
from repro.net.directions import DIRECTIONS, Direction
from repro.net.mesh import MeshTopology
from tests.net_checks import (
    SHAPES,
    assert_route_info_matches_methods_everywhere,
    some_failed_links,
)


def test_no_wrap_at_edges():
    m = MeshTopology(3)
    assert m.neighbor(0, Direction.NORTH) is None
    assert m.neighbor(0, Direction.WEST) is None
    assert m.neighbor(8, Direction.SOUTH) is None
    assert m.neighbor(8, Direction.EAST) is None


def test_interior_neighbors():
    m = MeshTopology(3)
    assert m.neighbor(4, Direction.NORTH) == 1
    assert m.neighbor(4, Direction.EAST) == 5
    assert m.neighbor(4, Direction.SOUTH) == 7
    assert m.neighbor(4, Direction.WEST) == 3


def test_degree():
    m = MeshTopology(3)
    assert m.degree(0) == 2  # corner
    assert m.degree(1) == 3  # edge
    assert m.degree(4) == 4  # interior


def test_distance_is_manhattan():
    m = MeshTopology(5)
    assert m.distance(m.node_id(0, 0), m.node_id(4, 4)) == 8
    assert m.distance(m.node_id(0, 0), m.node_id(0, 4)) == 4  # no wrap


def test_diameter_is_2n_minus_2():
    # §1.1: mesh max distance is 2N-2 vs about N for the torus.
    assert MeshTopology(8).diameter() == 14


def test_node_id_rejects_off_grid():
    m = MeshTopology(4)
    with pytest.raises(TopologyError):
        m.node_id(4, 0)
    with pytest.raises(TopologyError):
        m.node_id(0, -1)


def test_good_dirs_never_point_off_grid():
    m = MeshTopology(4)
    for src in range(m.num_nodes):
        for dst in range(m.num_nodes):
            for d in m.good_dirs(src, dst):
                assert m.neighbor(src, d) is not None


def test_good_dirs_decrease_distance():
    m = MeshTopology(4)
    for src in range(m.num_nodes):
        for dst in range(m.num_nodes):
            for d in m.good_dirs(src, dst):
                nb = m.neighbor(src, d)
                assert m.distance(nb, dst) == m.distance(src, dst) - 1


def test_homerun_row_first_then_column():
    m = MeshTopology(6)
    src, dst = m.node_id(0, 0), m.node_id(3, 2)
    path = []
    node = src
    while node != dst:
        d = m.homerun_dir(node, dst)
        path.append(d)
        node = m.neighbor(node, d)
    assert path == [Direction.EAST, Direction.EAST] + [Direction.SOUTH] * 3


def test_is_turning():
    m = MeshTopology(5)
    dst = m.node_id(3, 2)
    assert m.is_turning(m.node_id(0, 2), dst)
    assert not m.is_turning(m.node_id(0, 1), dst)


def test_wraps_flag():
    assert MeshTopology(3).wraps is False


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("rows,cols", SHAPES)
def test_route_info_equals_the_four_methods_for_every_pair(rows, cols, faulted):
    failed = some_failed_links(rows, cols) if faulted else ()
    m = MeshTopology(rows, cols, failed_links=failed)
    assert_route_info_matches_methods_everywhere(m)
