"""Unit tests for the packet priority states."""

from repro.hotpotato.packet import Priority


def test_priority_ordering():
    assert (
        Priority.SLEEPING
        < Priority.ACTIVE
        < Priority.EXCITED
        < Priority.RUNNING
    )


def test_route_rank_inverts_priority():
    # Higher priority routes first (smaller rank → earlier ROUTE stamp).
    assert Priority.RUNNING.route_rank == 0
    assert Priority.EXCITED.route_rank == 1
    assert Priority.ACTIVE.route_rank == 2
    assert Priority.SLEEPING.route_rank == 3
