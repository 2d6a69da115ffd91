"""Unit tests for grid directions."""

from repro.net import DIRECTIONS, NO_DIRECTION, Direction


def test_four_directions_in_index_order():
    assert [int(d) for d in DIRECTIONS] == [0, 1, 2, 3]


def test_opposites_are_involutions():
    for d in DIRECTIONS:
        assert d.opposite.opposite is d
        assert d.opposite != d


def test_opposite_pairs():
    assert Direction.NORTH.opposite is Direction.SOUTH
    assert Direction.EAST.opposite is Direction.WEST


def test_deltas_sum_to_zero_with_opposite():
    for d in DIRECTIONS:
        dr, dc = d.delta
        odr, odc = d.opposite.delta
        assert (dr + odr, dc + odc) == (0, 0)


def test_deltas_are_unit_steps():
    for d in DIRECTIONS:
        dr, dc = d.delta
        assert abs(dr) + abs(dc) == 1


def test_horizontal_flag():
    assert Direction.EAST.is_horizontal
    assert Direction.WEST.is_horizontal
    assert not Direction.NORTH.is_horizontal
    assert not Direction.SOUTH.is_horizontal


def test_rows_grow_southward_cols_grow_eastward():
    assert Direction.SOUTH.delta == (1, 0)
    assert Direction.EAST.delta == (0, 1)


def test_no_direction_sentinel():
    assert NO_DIRECTION == -1
    assert NO_DIRECTION not in [int(d) for d in DIRECTIONS]
