"""Unit and integration tests for the baseline deflection policies."""

import pytest

from repro.baselines.policies import (
    GreedyPolicy,
    RandomDeflectionPolicy,
    TwoChoicePolicy,
)
from repro.core.engine import run_sequential
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.packet import Priority
from repro.hotpotato.simulation import HotPotatoSimulation
from repro.net import Direction, TorusTopology
from repro.rng.streams import ReversibleStream

ALL_FREE = (True, True, True, True)


@pytest.fixture
def topo():
    return TorusTopology(8)


def cfg():
    return HotPotatoConfig(n=8)


def rng():
    return ReversibleStream(3)


def freeze(*dirs):
    return tuple(d in dirs for d in range(4))


def test_greedy_takes_good_link(topo):
    d, newp, deflected, *_ = GreedyPolicy().route(
        topo, topo.node_id(0, 0), topo.node_id(0, 3), Priority.ACTIVE, ALL_FREE, rng(), cfg()
    )
    assert d == Direction.EAST
    assert not deflected
    assert newp == Priority.ACTIVE


def test_greedy_deflects_when_blocked(topo):
    mask = freeze(Direction.NORTH)
    d, _, deflected, *_ = GreedyPolicy().route(
        topo, topo.node_id(0, 0), topo.node_id(0, 3), Priority.ACTIVE, mask, rng(), cfg()
    )
    assert deflected
    assert d == Direction.NORTH


def test_greedy_never_upgrades(topo):
    _, newp, _, upgraded, _, _ = GreedyPolicy().route(
        topo, 0, 9, Priority.SLEEPING, ALL_FREE, rng(), cfg()
    )
    assert newp == Priority.ACTIVE
    assert not upgraded


def test_random_deflection_picks_among_good(topo):
    node, dest = topo.node_id(0, 0), topo.node_id(2, 2)
    seen = set()
    stream = rng()
    for _ in range(50):
        d, _, deflected, *_ = RandomDeflectionPolicy().route(
            topo, node, dest, Priority.ACTIVE, ALL_FREE, stream, cfg()
        )
        seen.add(d)
        assert not deflected
    assert seen == {Direction.EAST, Direction.SOUTH}


def test_random_deflection_forced_choice_draws_nothing(topo):
    node, dest = topo.node_id(0, 0), topo.node_id(0, 3)
    stream = rng()
    d, *_ = RandomDeflectionPolicy().route(
        topo, node, dest, Priority.ACTIVE, ALL_FREE, stream, cfg()
    )
    assert d == Direction.EAST
    assert stream.count == 0


def test_two_choice_deflects_without_a_draw_when_its_good_link_failed():
    # Node (0, 0)'s east link is down from boot: a packet bound for
    # (0, 1) has no good link left, so it deflects and draws nothing.
    topo = TorusTopology(8, failed_links=[(0, Direction.EAST)])
    stream = rng()
    mask = freeze(Direction.NORTH, Direction.SOUTH)
    d, newp, deflected, *_ = TwoChoicePolicy().route(
        topo, 0, topo.node_id(0, 1), Priority.ACTIVE, mask, stream, cfg()
    )
    assert (d, newp, deflected) == (Direction.NORTH, Priority.ACTIVE, True)
    assert stream.count == 0


@pytest.mark.parametrize("policy_cls", [GreedyPolicy, RandomDeflectionPolicy])
def test_baseline_parallel_matches_sequential(policy_cls):
    cfg_run = HotPotatoConfig(n=6, duration=25.0, injector_fraction=1.0)
    sim = HotPotatoSimulation(cfg_run, policy=policy_cls())
    assert sim.run().model_stats == sim.run_parallel(
        n_pes=2, n_kps=6, mapping="striped"
    ).model_stats


def test_busch_beats_greedy_on_max_delivery_under_load():
    # The priority escort's purpose is bounding worst-case delivery; under
    # saturation it should not be (much) worse than memoryless greedy.
    base = dict(n=8, duration=120.0, injector_fraction=1.0)
    results = {}
    for name, policy in [("busch", None), ("greedy", GreedyPolicy())]:
        model = HotPotatoModel(HotPotatoConfig(**base), policy)
        results[name] = run_sequential(model, base["duration"]).model_stats
    assert results["busch"]["delivered"] > 0 and results["greedy"]["delivered"] > 0
    assert (
        results["busch"]["max_delivery_time"]
        <= results["greedy"]["max_delivery_time"] * 2.0
    )
