"""Unit tests for the four-priority hot-potato routing rules (§1.2.5)."""

import pytest

from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.packet import Priority
from repro.hotpotato.policy import (
    BuschHotPotatoPolicy,
    first_free,
    first_free_good,
)
from repro.net import Direction, TorusTopology
from repro.rng.streams import ReversibleStream

ALL_FREE = (True, True, True, True)
NONE_FREE = (False, False, False, False)


@pytest.fixture
def topo():
    return TorusTopology(8)


@pytest.fixture
def policy():
    return BuschHotPotatoPolicy()


def rng():
    return ReversibleStream(7)


def cfg(**kw):
    return HotPotatoConfig(n=8, **kw)


def freeze(*dirs):
    """Free mask with only the given directions free."""
    return tuple(d in dirs for d in range(4))


# ----------------------------------------------------------------------
# Helper selectors.
# ----------------------------------------------------------------------
def test_first_free_good_prefers_row_progress(topo):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 2)
    assert first_free_good(topo, node, dest, ALL_FREE) == Direction.EAST
    # Row link busy → column progress.
    mask = freeze(Direction.NORTH, Direction.SOUTH, Direction.WEST)
    assert first_free_good(topo, node, dest, mask) == Direction.SOUTH


def test_first_free_good_none_when_blocked(topo):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 2)
    mask = freeze(Direction.NORTH, Direction.WEST)  # both bad links
    assert first_free_good(topo, node, dest, mask) is None


def test_first_free_avoid_preference():
    mask = freeze(Direction.NORTH, Direction.WEST)
    assert first_free(mask, avoid=Direction.NORTH) == Direction.WEST
    only = freeze(Direction.NORTH)
    assert first_free(only, avoid=Direction.NORTH) == Direction.NORTH
    assert first_free(NONE_FREE) is None


# ----------------------------------------------------------------------
# Sleeping.
# ----------------------------------------------------------------------
def test_sleeping_takes_good_link(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.SLEEPING, ALL_FREE, rng(), cfg()
    )
    assert d == Direction.EAST
    assert not deflected


def test_sleeping_upgrade_probability_is_applied(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    # Force the upgrade chance to certainty / impossibility via the scale.
    sure = cfg(sleeping_upgrade_scale=1e-9)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.SLEEPING, ALL_FREE, rng(), sure
    )
    assert newp == Priority.ACTIVE and upgraded
    never = cfg(sleeping_upgrade_scale=1e9)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.SLEEPING, ALL_FREE, rng(), never
    )
    assert newp == Priority.SLEEPING and not upgraded


def test_sleeping_upgrade_chance_even_when_deflected(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    mask = freeze(Direction.WEST)  # only a bad link free
    sure = cfg(sleeping_upgrade_scale=1e-9)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.SLEEPING, mask, rng(), sure
    )
    assert deflected and newp == Priority.ACTIVE


def test_sleeping_draws_exactly_one_random_number(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    stream = rng()
    policy.route(topo, node, dest, Priority.SLEEPING, ALL_FREE, stream, cfg())
    assert stream.count == 1


# ----------------------------------------------------------------------
# Active.
# ----------------------------------------------------------------------
def test_active_good_route_no_draw(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    stream = rng()
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.ACTIVE, ALL_FREE, stream, cfg()
    )
    assert not deflected
    assert newp == Priority.ACTIVE
    assert stream.count == 0  # upgrade chance only on deflection


def test_active_deflection_may_excite(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    mask = freeze(Direction.NORTH)
    sure = cfg(active_upgrade_scale=1e-9)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.ACTIVE, mask, rng(), sure
    )
    assert deflected and newp == Priority.EXCITED and upgraded
    never = cfg(active_upgrade_scale=1e9)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.ACTIVE, mask, rng(), never
    )
    assert deflected and newp == Priority.ACTIVE


# ----------------------------------------------------------------------
# Excited.
# ----------------------------------------------------------------------
def test_excited_success_promotes_to_running(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 3)
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.EXCITED, ALL_FREE, rng(), cfg()
    )
    assert d == topo.homerun_dir(node, dest) == Direction.EAST
    assert newp == Priority.RUNNING
    assert upgraded and not deflected


def test_excited_deflection_demotes_to_active(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    mask = freeze(Direction.SOUTH)  # home-run (EAST) busy
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.EXCITED, mask, rng(), cfg()
    )
    assert deflected and demoted
    assert newp == Priority.ACTIVE


def test_excited_uses_no_randomness(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 3)
    stream = rng()
    policy.route(topo, node, dest, Priority.EXCITED, ALL_FREE, stream, cfg())
    assert stream.count == 0


# ----------------------------------------------------------------------
# Running.
# ----------------------------------------------------------------------
def test_running_stays_running_on_homerun(topo, policy):
    node, dest = topo.node_id(0, 2), topo.node_id(4, 2)  # column phase
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.RUNNING, ALL_FREE, rng(), cfg()
    )
    assert d == Direction.SOUTH
    assert newp == Priority.RUNNING
    assert not upgraded  # no transition: it was already Running


def test_running_deflected_while_turning_demotes(topo, policy):
    node, dest = topo.node_id(0, 2), topo.node_id(3, 2)
    assert topo.is_turning(node, dest)
    mask = freeze(Direction.NORTH)  # wanted SOUTH
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.RUNNING, mask, rng(), cfg()
    )
    assert deflected and demoted and turning
    assert newp == Priority.ACTIVE


def test_running_straight_not_turning_flag(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)  # row phase
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.RUNNING, ALL_FREE, rng(), cfg()
    )
    assert not turning


def test_blocked_homerun_still_prefers_good_link(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 3)
    mask = freeze(Direction.SOUTH, Direction.WEST)  # EAST busy; SOUTH good
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.RUNNING, mask, rng(), cfg()
    )
    assert d == Direction.SOUTH
    assert demoted  # knocked off the home-run path → back to Active
    assert not deflected  # but the hop still made progress


def test_blocked_homerun_with_no_good_link_deflects(topo, policy):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)  # pure row path
    mask = freeze(Direction.NORTH)  # only a bad link free
    d, newp, deflected, upgraded, demoted, turning = policy.route(
        topo, node, dest, Priority.RUNNING, mask, rng(), cfg()
    )
    assert d == Direction.NORTH
    assert demoted and deflected
