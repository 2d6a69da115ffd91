"""Cross-mode determinism gate: golden committed counts on tiny workloads.

Three models small enough that the whole matrix runs in seconds, each
pinned to the committed-event count of the pre-checkpointing tree.  The
sequential engine (the hot-potato cell is its band program), the
conservative engine, in-process Time Warp (at two optimism levels on the
hot-potato network) and process-mode Time Warp on 2 and 4 workers
must all commit exactly that count under either dispatch — if any cell
commits anything else, event order (and therefore the science) changed,
not just speed.  Dispatch is not an
option: there is one population, and Time Warp's batch runs the model's
handler table whenever the model offers one (the ``vectorized`` ids,
process mode included); the ``scalar`` ids use a test-side foil, a model
that declines the table, so ``lp.forward`` runs every event.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import ARRIVE, INJECT, ROUTE
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import plan_declined, plan_spy

SEED = 0xB5EED
END = 10.0


def _phold():
    return PholdModel(PholdConfig(n_lps=32, jobs_per_lp=2))


def _phold_stress():
    """Rollback-heavy PHOLD: almost no lookahead, 90% remote hops."""
    return PholdModel(
        PholdConfig(n_lps=32, jobs_per_lp=2, lookahead=0.01, remote_fraction=0.9)
    )


def _hotpotato():
    """The 4x4 torus at full load."""
    return HotPotatoModel(
        HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)
    )


#: model name -> (factory, golden committed count on every engine).
MODELS = {
    "phold": (_phold, 584),
    "phold-stress": (_phold_stress, 657),
    "hotpotato": (_hotpotato, 1055),
}

#: Time Warp cells: (model, label, EngineConfig overrides).  A 512-event
#: batch on the hot-potato network rolls back far more than 64; process
#: mode takes GVT every 16 rounds because each GVT there is a
#: cross-process stop-and-drain wave.
PHOLD_STRESS_OPT = ("phold-stress", "opt", {"batch_size": 256})
TIME_WARP = [
    ("phold", "opt", {"batch_size": 32}),
    PHOLD_STRESS_OPT,
    ("hotpotato", "opt", {"batch_size": 64}),
    ("hotpotato", "opt-stress", {"batch_size": 512}),
] + [
    (
        "hotpotato",
        f"procs={procs}",
        {"batch_size": 64, "gvt_interval": 16, "procs": procs},
    )
    for procs in (2, 4)
]


def _time_warp(name, overrides, executor="vectorized"):
    """The run's stats and the handler-table calls it made (all kinds)."""
    ecfg = EngineConfig(end_time=END, n_pes=4, n_kps=16, seed=SEED, **overrides)
    model = MODELS[name][0]()
    if executor == "scalar":
        plan_declined(model)
    calls = plan_spy(model, (ARRIVE, ROUTE, INJECT))
    return run_optimistic(model, ecfg).run, sum(calls)


EXECUTORS = ("scalar", "vectorized")


@pytest.mark.parametrize(
    "executor",
    EXECUTORS,
    # The ids name the pending queue ("heap") and the cancellation mode
    # ("aggressive"), the only ones, as the suite has always printed them.
    ids=[f"heap-aggressive-{executor}" for executor in EXECUTORS],
)
def test_committed_counts_are_golden(executor):
    committed = {}
    for name, (model, _) in MODELS.items():
        if executor == "scalar":
            # The sequential and conservative engines build one
            # population: one cell each.
            committed[name, "seq"] = run_sequential(
                model(), END, seed=SEED
            ).run.committed
            committed[name, "cons"] = run_conservative(
                model(),
                ConservativeConfig(end_time=END, n_pes=4, sync="yawns", seed=SEED),
            ).run.committed
    for name, label, overrides in TIME_WARP:
        run, table_calls = _time_warp(name, overrides, executor)
        assert run.procs == overrides.get("procs", 1)
        committed[name, label] = run.committed
        if name == "hotpotato":
            # The handler table ran exactly where the model offered it.
            assert (table_calls > 0) == (executor == "vectorized")
    assert committed == {cell: MODELS[cell[0]][1] for cell in committed}


def test_phold_stress_rolls_back_heavily():
    """The stress pin is only a determinism gate if rollback dominates."""
    name, _, overrides = PHOLD_STRESS_OPT
    run, _ = _time_warp(name, overrides)
    assert run.events_rolled_back > run.committed / 2
