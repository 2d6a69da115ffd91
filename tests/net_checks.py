"""Shared checks for the grid topologies' ``route_info``.

The four per-pair methods (``good_dirs``, ``homerun_dir``, ``is_turning``,
``distance``) are the definition; ``route_info`` is the table lookup the
routers use, and must return exactly what they return.
"""

from repro.net import Direction

#: Even and odd sides, antipodal ties on one or both axes, non-square.
SHAPES = [(2, 2), (3, 3), (4, 4), (5, 7), (6, 4), (8, 8), (9, 2)]


def some_failed_links(rows: int, cols: int) -> list[tuple[int, Direction]]:
    """Failed links that exist on a torus and on a mesh of any shape.

    The first node loses two links, the last node one."""
    return [
        (0, Direction.EAST),
        (0, Direction.SOUTH),
        (rows * cols - 1, Direction.WEST),
    ]


def assert_route_info_matches_methods(topo, src: int, dst: int) -> None:
    info = topo.route_info(src, dst)
    assert info == (
        topo.good_dirs(src, dst),
        topo.homerun_dir(src, dst),
        topo.is_turning(src, dst),
        topo.distance(src, dst),
    ), (topo, src, dst)
    good, homerun, turning, dist = info
    assert all(type(d) is Direction for d in good)
    assert homerun is None or type(homerun) is Direction
    assert type(turning) is bool and type(dist) is int


def assert_route_info_matches_methods_everywhere(topo) -> None:
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            assert_route_info_matches_methods(topo, src, dst)
