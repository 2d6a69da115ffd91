"""The router's runs off the Busch torus, pinned against recorded data.

The mesh (both absorption rules), a model-fault plan, an adversary
script and each non-Busch policy were once executed event by event by
the router's own per-kind methods.  Their committed results on that tree
are recorded in ``tests/data/golden_router_reference.json`` — model
statistics, per-router signatures and the committed sequence's sha256 —
and every engine must still reproduce them: the sequential oracle, the
conservative kernel and Time Warp.  Regenerate (only when the model's
science changes on purpose) with
``PYTHONPATH=src python -m tests.test_router_reference``.

A second check keeps the inlined Busch rule honest: a trivial
``BuschHotPotatoPolicy`` subclass takes the handler table's generic
``policy.route`` branch, so ``policy.py`` itself is the oracle the
inlined branch is compared against.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.trace import Tracer
from repro.faults import generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.net import TOPOLOGIES

GOLDEN = Path(__file__).parent / "data" / "golden_router_reference.json"
SEED = 0xC0FFEE
N = 6
DURATION = 20.0


def _cfg(**overrides) -> HotPotatoConfig:
    return HotPotatoConfig(
        n=N, duration=DURATION, injector_fraction=1.0, **overrides
    )


def _fault_plan(topology: str = "torus"):
    return generate_plan(
        TOPOLOGIES[topology](N),
        duration=DURATION,
        link_fail_rate=0.08,
        heal_after=6,
        router_crash_rate=0.05,
        recover_after=4,
        seed=0xFA17,
    )


def _adversary():
    from repro.scenarios.adversary import generate_injection_plan

    return generate_injection_plan(
        TOPOLOGIES["torus"](N), strategy="hotspot", duration=DURATION,
        rate=0.6, hotspots=2, seed=0xAD,
    )


def _policy(name: str):
    from repro.baselines.policies import make_policy

    return make_policy(name)


#: case -> thunk building a fresh model.
CASES = {
    "mesh": lambda: HotPotatoModel(_cfg(topology="mesh", heartbeat=True)),
    "mesh-proof": lambda: HotPotatoModel(
        _cfg(topology="mesh", absorb_sleeping=False)
    ),
    "faults": lambda: HotPotatoModel(_cfg(), fault_plan=_fault_plan()),
    "adversary": lambda: HotPotatoModel(_cfg(), injection_plan=_adversary()),
    **{
        f"policy-{name}": (lambda name=name: HotPotatoModel(
            _cfg(), policy=_policy(name)
        ))
        for name in ("greedy", "dimension-order", "random-deflection", "two-choice")
    },
}

ENGINES = ("seq", "cons", "opt")


def _run(model, engine: str):
    """``(model_stats, committed sequence)`` of one traced run."""
    tracer = Tracer()
    if engine == "seq":
        result = run_sequential(model, DURATION, seed=SEED, tracer=tracer)
    elif engine == "cons":
        ccfg = ConservativeConfig(
            end_time=DURATION, n_pes=4, seed=SEED,
            lookahead=model.lookahead,
        )
        result = run_conservative(model, ccfg, tracer=tracer)
    else:
        ecfg = EngineConfig(
            end_time=DURATION, n_pes=4, n_kps=4, batch_size=16, seed=SEED
        )
        result = run_optimistic(model, ecfg, tracer=tracer)
    return result.model_stats, tracer.committed_sequence()


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _record(model_stats: dict, sequence) -> dict:
    """The recorded shape: flat stats, per-router and sequence digests."""
    ms = dict(model_stats)
    per_router = [list(sig) for sig in ms.pop("per_router")]
    return {
        "committed_events": len(sequence),
        "committed_sequence_sha256": _sha(sequence),
        "per_router_sha256": _sha(per_router),
        "model_stats": json.loads(json.dumps(ms, sort_keys=True)),
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", list(CASES))
def test_matches_the_recorded_reference(case, engine):
    want = json.loads(GOLDEN.read_text())["cases"][case]
    got = _record(*_run(CASES[case](), engine))
    assert got == want


class _PlainBusch(BuschHotPotatoPolicy):
    """The Busch rule as ``policy.py`` states it: not the exact class, so
    the handler table calls ``route`` instead of its inlined copy."""


@pytest.mark.parametrize(
    "topology, faulted",
    [("torus", False), ("mesh", False), ("torus", True)],
    ids=["torus", "mesh", "faultplan"],
)
@pytest.mark.parametrize("engine", ["seq", "opt"])
def test_inlined_busch_rule_equals_policy_py(topology, faulted, engine):
    def model(policy):
        plan = _fault_plan(topology) if faulted else None
        return HotPotatoModel(
            _cfg(topology=topology), policy=policy, fault_plan=plan
        )

    inlined = _run(model(BuschHotPotatoPolicy()), engine)
    generic = _run(model(_PlainBusch()), engine)
    assert generic == inlined
    assert inlined[0]["routes"] > 0


def _regenerate() -> None:
    cases = {}
    for case, build in CASES.items():
        cases[case] = _record(*_run(build(), "seq"))
    doc = {
        "scenario": {"n": N, "duration": DURATION, "seed": SEED},
        "cases": cases,
    }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
