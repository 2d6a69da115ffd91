"""Unit tests for FaultPlan: validation, JSON round-trip, generation."""

import json

import pytest

from repro.faults import (
    CRASH,
    LINK_DOWN,
    LINK_UP,
    RECOVER,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    PEStall,
    generate_plan,
)
from repro.net import Direction, TorusTopology


def test_empty_plan_is_empty():
    plan = FaultPlan()
    assert plan.is_empty
    assert not plan.has_model_faults
    assert not plan.has_transport_faults
    assert not plan.has_stalls
    assert not plan.has_engine_faults
    plan.validate()


def test_plan_properties_by_layer():
    model = FaultPlan(events=(FaultEvent(0, LINK_DOWN, 1, int(Direction.EAST)),))
    assert model.has_model_faults and not model.has_engine_faults
    transport = FaultPlan(drop_rate=0.1)
    assert transport.has_transport_faults and transport.has_engine_faults
    assert not transport.has_model_faults
    stalls = FaultPlan(stalls=(PEStall(0, 2, 3),))
    assert stalls.has_stalls and stalls.has_engine_faults


def test_validate_rejects_bad_rates():
    with pytest.raises(FaultPlanError):
        FaultPlan(drop_rate=-0.1).validate()
    with pytest.raises(FaultPlanError):
        FaultPlan(dup_rate=1.5).validate()
    # Rates must sum to at most 1: they partition one uniform draw.
    with pytest.raises(FaultPlanError):
        FaultPlan(drop_rate=0.5, dup_rate=0.4, delay_rate=0.2).validate()
    with pytest.raises(FaultPlanError):
        FaultPlan(delay_rate=0.1, delay_rounds=0).validate()


def test_validate_rejects_bad_event_schedules():
    # A link cannot go down twice without healing in between.
    with pytest.raises(FaultPlanError):
        FaultPlan(
            events=(
                FaultEvent(1, LINK_DOWN, 0, 1),
                FaultEvent(5, LINK_DOWN, 0, 1),
            )
        ).validate()
    # Recover before crash is meaningless.
    with pytest.raises(FaultPlanError):
        FaultPlan(events=(FaultEvent(3, RECOVER, 0),)).validate()
    # Node bounds are checked when the caller supplies them.
    plan = FaultPlan(events=(FaultEvent(0, CRASH, 99),))
    plan.validate()
    with pytest.raises(FaultPlanError):
        plan.validate(num_nodes=16)
    with pytest.raises(FaultPlanError):
        FaultPlan(events=(FaultEvent(0, "meteor", 0),)).validate()


def test_json_round_trip_exact():
    plan = FaultPlan(
        events=(
            FaultEvent(0, LINK_DOWN, 3, int(Direction.SOUTH)),
            FaultEvent(2, CRASH, 5),
            FaultEvent(7, RECOVER, 5),
            FaultEvent(9, LINK_UP, 3, int(Direction.SOUTH)),
        ),
        drop_rate=0.05,
        dup_rate=0.02,
        delay_rate=0.1,
        delay_rounds=4,
        stalls=(PEStall(1, 10, 5),),
        seed=0xBEEF,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    # And through a file, as the CLIs use it.
    doc = json.loads(plan.to_json())
    assert doc["version"] == 1
    assert FaultPlan.from_dict(doc) == plan


def test_generate_plan_is_deterministic_and_valid():
    topo = TorusTopology(6)
    kwargs = dict(
        duration=50.0,
        link_fail_rate=0.1,
        heal_after=10,
        router_crash_rate=0.05,
        recover_after=8,
        drop_rate=0.02,
        seed=1234,
    )
    a = generate_plan(topo, **kwargs)
    b = generate_plan(topo, **kwargs)
    assert a == b
    assert a.events  # 72 links at 10% + 36 routers at 5%: virtually certain
    a.validate(num_nodes=36)
    c = generate_plan(topo, **{**kwargs, "seed": 4321})
    assert c != a


def test_generate_plan_zero_rates_is_empty_schedule():
    plan = generate_plan(TorusTopology(4), duration=20.0)
    assert plan.events == ()

