"""Engine-level fault-injection guarantees.

Three contracts, in rising order of subtlety:

1. **Faults-off bit-identity** — with no plan attached, the engines run
   byte-for-byte the committed sequence they ran before the fault
   subsystem existed (pinned by ``tests/data/golden_hotpotato.json``,
   generated from the pre-fault tree).
2. **Model-fault determinism** — the same plan + seed produces identical
   committed results on the sequential, optimistic and conservative
   engines: fault schedules are pure functions of the step.
3. **Engine-fault transparency** — transport drop/duplicate/delay and PE
   stalls perturb scheduling only; committed sequences still match the
   oracle exactly, while the fault counters prove the chaos actually
   happened.
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
from repro.faults import EngineFaults, FaultPlan, PEStall, generate_plan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.net import TorusTopology

GOLDEN = Path(__file__).parent / "data" / "golden_hotpotato.json"

#: First 20 RouterStats slots — the pre-fault signature layout the golden
#: fixture was generated with (the three fault counters were appended
#: after them, so trimming makes signatures comparable across the change).
PRISTINE_SIG_LEN = 20


def _run_golden_scenario(engine: str):
    golden = json.loads(GOLDEN.read_text())
    sc = golden["scenario"]
    cfg = HotPotatoConfig(
        n=sc["n"], duration=sc["duration"], injector_fraction=sc["injector_fraction"]
    )
    tracer = Tracer()
    if engine == "sequential":
        result = run_sequential(
            HotPotatoModel(cfg), cfg.duration, seed=sc["seed"], tracer=tracer
        )
    else:
        opt = sc["opt"]
        ecfg = EngineConfig(
            end_time=cfg.duration,
            n_pes=opt["n_pes"],
            n_kps=opt["n_kps"],
            batch_size=opt["batch_size"],
            seed=sc["seed"],
        )
        result = run_optimistic(HotPotatoModel(cfg), ecfg, tracer=tracer)
    return golden, result, tracer.committed_sequence()


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("engine", ["sequential", "optimistic"])
def test_faults_off_bit_identical_to_pre_fault_tree(engine):
    golden, result, seq = _run_golden_scenario(engine)
    assert len(seq) == golden["committed_events"]
    assert _sha(seq) == golden["committed_sequence_sha256"]
    assert result.run.committed == golden[f"{engine}_committed"]
    ms = dict(result.model_stats)
    per_router = ms.pop("per_router")
    trimmed = [list(sig[:PRISTINE_SIG_LEN]) for sig in per_router]
    assert (
        hashlib.sha256(json.dumps(trimmed).encode()).hexdigest()
        == golden["per_router_sha256"]
    )
    for key, want in golden["model_stats"].items():
        got = ms[key]
        assert (list(got) if isinstance(got, tuple) else got) == want, key
    # The appended fault counters must all be zero on an unfaulted run.
    assert all(all(v == 0 for v in sig[PRISTINE_SIG_LEN:]) for sig in per_router)
    assert ms["fault_dropped"] == 0 and ms["fault_deflections"] == 0
    run = result.run
    assert run.transport_dropped == 0 and run.pe_stall_rounds == 0


# ----------------------------------------------------------------------
# Cross-engine determinism under faults.
# ----------------------------------------------------------------------
CFG = HotPotatoConfig(n=8, duration=25.0, injector_fraction=1.0)
SEED = 0x5EED


def _model_plan():
    return generate_plan(
        TorusTopology(CFG.n),
        duration=CFG.duration,
        link_fail_rate=0.1,
        heal_after=8,
        router_crash_rate=0.08,
        recover_after=6,
        seed=0xD00D,
    )


def _committed(tracer):
    return tracer.committed_sequence()


def test_model_faults_identical_across_all_engines():
    plan = _model_plan()
    assert plan.events, "plan unexpectedly empty — rates/seed drifted"

    seq_tr = Tracer()
    seq = run_sequential(
        HotPotatoModel(CFG, fault_plan=plan), CFG.duration, seed=SEED, tracer=seq_tr
    )

    opt_tr = Tracer()
    ecfg = EngineConfig(
        end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    opt = run_optimistic(HotPotatoModel(CFG, fault_plan=plan), ecfg, tracer=opt_tr)
    assert _committed(seq_tr) == _committed(opt_tr)
    assert seq.model_stats == opt.model_stats

    ccfg = ConservativeConfig(end_time=CFG.duration, n_pes=4, seed=SEED)
    cons = run_conservative(HotPotatoModel(CFG, fault_plan=plan), ccfg)
    assert cons.model_stats == seq.model_stats

    # Faults actually bit: something was dropped or fault-deflected.
    ms = seq.model_stats
    assert ms["fault_dropped"] > 0 or ms["fault_deflections"] > 0
    assert ms["fault_events"] == len(plan.events)


def test_crashed_router_drops_in_flight_packets():
    # A mid-run crash catches packets already in flight toward the node
    # (neighbors only mask the link from the crash step onward, so
    # anything sent the step before arrives at a dead router and drops).
    from repro.faults import CRASH, FaultEvent

    plan = FaultPlan(events=(FaultEvent(3, CRASH, 27),))
    seq = run_sequential(HotPotatoModel(CFG, fault_plan=plan), CFG.duration, seed=SEED)
    ms = seq.model_stats
    assert ms["fault_dropped_crash"] > 0
    assert ms["fault_dropped"] == ms["fault_dropped_crash"] + ms["fault_dropped_no_link"]


def test_transport_faults_do_not_change_committed_sequence():
    plan = FaultPlan(drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2)

    seq_tr = Tracer()
    run_sequential(HotPotatoModel(CFG), CFG.duration, seed=SEED, tracer=seq_tr)

    opt_tr = Tracer()
    ecfg = EngineConfig(
        end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    opt = run_optimistic(
        HotPotatoModel(CFG), ecfg, tracer=opt_tr, faults=EngineFaults(plan)
    )
    assert _committed(seq_tr) == _committed(opt_tr)
    run = opt.run
    perturbed = run.transport_dropped + run.transport_duplicated + run.transport_delayed
    assert perturbed > 0, "transport fault rates never fired — test is vacuous"


def test_pe_stalls_do_not_change_committed_results():
    plan = FaultPlan(
        stalls=(PEStall(0, 2, 4), PEStall(2, 5, 3), PEStall(3, 1, 2))
    )
    seq = run_sequential(HotPotatoModel(CFG), CFG.duration, seed=SEED)
    ecfg = EngineConfig(
        end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    opt = run_optimistic(HotPotatoModel(CFG), ecfg, faults=EngineFaults(plan))
    assert opt.model_stats == seq.model_stats
    assert opt.run.pe_stall_rounds > 0

    ccfg = ConservativeConfig(end_time=CFG.duration, n_pes=4, seed=SEED)
    cons = run_conservative(HotPotatoModel(CFG), ccfg, faults=EngineFaults(plan))
    assert cons.model_stats == seq.model_stats
    assert cons.run.pe_stall_rounds > 0


def test_everything_at_once_stays_deterministic():
    # Model faults + transport chaos + stalls, optimistic vs oracle.
    plan = generate_plan(
        TorusTopology(CFG.n),
        duration=CFG.duration,
        link_fail_rate=0.08,
        heal_after=10,
        router_crash_rate=0.05,
        recover_after=8,
        drop_rate=0.03,
        dup_rate=0.03,
        delay_rate=0.04,
        stalls=(PEStall(1, 3, 3),),
        seed=0xABBA,
    )
    seq_tr = Tracer()
    run_sequential(
        HotPotatoModel(CFG, fault_plan=plan), CFG.duration, seed=SEED, tracer=seq_tr
    )
    opt_tr = Tracer()
    ecfg = EngineConfig(
        end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    run_optimistic(
        HotPotatoModel(CFG, fault_plan=plan),
        ecfg,
        tracer=opt_tr,
        faults=EngineFaults(plan),
    )
    assert _committed(seq_tr) == _committed(opt_tr)


def test_model_faults_and_transport_chaos_match_the_oracle_sequence():
    # Link faults in the model and a transport that drops, duplicates and
    # holds messages two rounds: the traced Time Warp run commits the
    # oracle's exact sequence, and both fault classes fired.
    cfg = HotPotatoConfig(n=8, duration=15.0, injector_fraction=1.0)
    model_plan = generate_plan(
        TorusTopology(cfg.n),
        duration=cfg.duration,
        link_fail_rate=0.1,
        heal_after=8,
        seed=0xD00D,
    )
    transport_plan = FaultPlan(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )
    seq_tr = Tracer()
    seq = run_sequential(
        HotPotatoModel(cfg, fault_plan=model_plan), cfg.duration, seed=SEED,
        tracer=seq_tr,
    )
    opt_tr = Tracer()
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    opt = run_optimistic(
        HotPotatoModel(cfg, fault_plan=model_plan),
        ecfg,
        tracer=opt_tr,
        faults=EngineFaults(transport_plan),
    )
    assert _committed(opt_tr) == _committed(seq_tr)
    assert opt.model_stats == seq.model_stats
    assert opt.model_stats["fault_events"] > 0
    run = opt.run
    assert run.transport_dropped + run.transport_duplicated + run.transport_delayed > 0


def test_empty_plan_attach_is_identity():
    ecfg = EngineConfig(
        end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=16, seed=SEED
    )
    plain = run_optimistic(HotPotatoModel(CFG), ecfg)
    hooked = run_optimistic(
        HotPotatoModel(CFG), ecfg, faults=EngineFaults(FaultPlan())
    )
    assert hooked.model_stats == plain.model_stats
    assert hooked.run.committed == plain.run.committed
    assert hooked.run.pe_stall_rounds == 0


def test_rollback_strategies_agree_under_model_faults():
    # Copy-strategy rollback never runs reverse handlers, so the fault
    # bookkeeping in event.saved must not be load-bearing across
    # snapshots; both strategies must land on the oracle's results.
    plan = _model_plan()
    seq = run_sequential(
        HotPotatoModel(CFG, fault_plan=plan), CFG.duration, seed=SEED
    )
    for rollback in ("reverse", "copy"):
        ecfg = EngineConfig(
            end_time=CFG.duration,
            n_pes=4,
            n_kps=16,
            batch_size=16,
            seed=SEED,
            rollback=rollback,
        )
        opt = run_optimistic(HotPotatoModel(CFG, fault_plan=plan), ecfg)
        assert opt.model_stats == seq.model_stats, rollback
