"""Routing-policy conformance: bit-identical across all three engines.

The determinism contract (docs/KERNEL.md) is stated for the model, not
for one routing policy: every policy that draws randomness exclusively
through the LP's :class:`~repro.rng.streams.ReversibleStream` must
commit exactly the same event sequence on the sequential oracle, the
conservative (YAWNS) kernel and the Time Warp kernel — on golden seeds,
under an active :class:`~repro.faults.FaultPlan`, and with one link
failed from boot (a *static* failure, which ``route_info`` drops from the
good links, so some packet's only progress direction is dead).  This
suite pins that for every registered policy, including the two-choice
balanced-allocation router, and for the scripted adversary.
"""

import pytest

from repro.baselines import POLICIES, make_policy
from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel
from repro.core.engine import SequentialEngine
from repro.core.optimistic import TimeWarpKernel
from repro.core.trace import Tracer
from repro.faults import FaultEvent, FaultPlan, generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.net import TorusTopology
from repro.scenarios import generate_injection_plan

N = 4
DURATION = 12.0
GOLDEN_SEEDS = (7, 0x5EED)


def _fault_plan():
    return generate_plan(
        TorusTopology(N),
        duration=DURATION,
        link_fail_rate=0.02,
        heal_after=5,
        router_crash_rate=0.01,
        recover_after=4,
        seed=77,
    )


#: Node 0's east link down from step 0, never healed: a static failure.
STATIC_PLAN = FaultPlan(events=(FaultEvent(0, "link_down", 0, 1),))

#: Fault input -> plan builder.
FAULTS = {
    "clean": lambda: None,
    "faultplan": _fault_plan,
    "static": lambda: STATIC_PLAN,
}


def _adversary():
    return generate_injection_plan(
        TorusTopology(N),
        strategy="hotspot",
        duration=DURATION,
        rate=0.5,
        seed=909,
    )


def _model(policy_name: str, faults: str, adversarial: bool):
    cfg = HotPotatoConfig(n=N, duration=DURATION, injector_fraction=1.0)
    return HotPotatoModel(
        cfg,
        make_policy(policy_name),
        fault_plan=FAULTS[faults](),
        injection_plan=_adversary() if adversarial else None,
    )


def _run(engine, policy_name, seed, faults, adversarial=False):
    model = _model(policy_name, faults, adversarial)
    tracer = Tracer()
    if engine == "seq":
        kernel = SequentialEngine(model, DURATION, seed=seed)
    elif engine == "cons":
        kernel = ConservativeKernel(
            model,
            EngineConfig(
                end_time=DURATION, n_pes=4, seed=seed,
            ),
        )
    else:
        kernel = TimeWarpKernel(
            model,
            EngineConfig(
                end_time=DURATION, n_pes=4, n_kps=16, batch_size=16,
                seed=seed,
            ),
        )
    kernel.attach_tracer(tracer)
    result = kernel.run()
    return tracer.committed_sequence(), result.model_stats


@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policy_bit_identical_across_engines(policy, seed, faults):
    """seq == cons == opt: committed sequence and statistics."""
    seq_trace, seq_stats = _run("seq", policy, seed, faults)
    assert seq_stats["delivered"] > 0
    for engine in ("cons", "opt"):
        trace, stats = _run(engine, policy, seed, faults)
        assert trace == seq_trace, f"{engine} diverged from oracle"
        assert stats == seq_stats


@pytest.mark.parametrize("policy", ["busch", "two-choice"])
def test_adversary_bit_identical_across_engines(policy):
    """The scripted adversary preserves the contract on every engine."""
    seed = GOLDEN_SEEDS[0]
    seq_trace, seq_stats = _run("seq", policy, seed, "faultplan", adversarial=True)
    assert seq_stats["injected"] > 0
    for engine in ("cons", "opt"):
        trace, stats = _run(engine, policy, seed, "faultplan", adversarial=True)
        assert trace == seq_trace, f"{engine} diverged from oracle"
        assert stats == seq_stats


def test_two_choice_differs_from_busch():
    """Sanity: the two-choice policy is actually a different router (it
    must not silently alias the Busch state machine)."""
    _, busch = _run("seq", "busch", GOLDEN_SEEDS[0], "clean")
    _, two_choice = _run("seq", "two-choice", GOLDEN_SEEDS[0], "clean")
    assert busch != two_choice


def test_policy_registry_complete():
    """Every registered policy constructs and self-describes."""
    assert set(POLICIES) == {
        "busch", "greedy", "random-deflection", "two-choice",
    }
    for name in POLICIES:
        assert make_policy(name).name == name
