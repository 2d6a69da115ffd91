"""Cross-mode determinism gate: golden committed counts on tiny workloads.

Three models small enough that the whole matrix runs in seconds, each
pinned to the committed-event count of the pre-checkpointing tree.  The
sequential engine (the hot-potato cell is its band program), the
conservative engine, in-process Time Warp (at two optimism levels on the
hot-potato network) and process-mode Time Warp on 2 and 4 workers
must all commit exactly that count — if any cell commits anything else,
event order (and therefore the science) changed, not just speed.  There
is one population and one dispatch: every engine runs the model's
handler table.  The ``scalar`` ids hold the oracle's cells (sequential
and conservative), the ``vectorized`` ids the Time Warp cells, process
mode included.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeConfig, run_conservative
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.router import ARRIVE, INIT, INJECT, ROUTE
from repro.models.phold import PholdConfig, PholdModel
from tests.kernel_models import plan_spy

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


def _spied(name):
    """A fresh ``name`` model and the calls its handler table serves."""
    model = MODELS[name][0]()
    return model, plan_spy(model, (INIT, ARRIVE, ROUTE, INJECT))


def _time_warp(name, overrides):
    """The run's stats and the handler-table calls it made (all kinds)."""
    ecfg = EngineConfig(end_time=END, n_pes=4, n_kps=16, seed=SEED, **overrides)
    model, calls = _spied(name)
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
    table_calls = {}
    if executor == "scalar":
        for name in MODELS:
            model, calls = _spied(name)
            committed[name, "seq"] = run_sequential(
                model, END, seed=SEED
            ).run.committed
            table_calls[name, "seq"] = sum(calls)
            model, calls = _spied(name)
            committed[name, "cons"] = run_conservative(
                model,
                ConservativeConfig(end_time=END, n_pes=4, seed=SEED),
            ).run.committed
            table_calls[name, "cons"] = sum(calls)
    else:
        for name, label, overrides in TIME_WARP:
            run, table_calls[name, label] = _time_warp(name, overrides)
            assert run.procs == overrides.get("procs", 1)
            committed[name, label] = run.committed
    assert committed == {cell: MODELS[cell[0]][1] for cell in committed}
    # Every engine ran the hot-potato cells through the handler table
    # (the oracle's band program takes over after step 0's events).
    for (name, label), calls in table_calls.items():
        assert (calls > 0) == (name == "hotpotato"), (name, label)


def test_phold_stress_rolls_back_heavily():
    """The stress pin is only a determinism gate if rollback dominates."""
    name, _, overrides = PHOLD_STRESS_OPT
    run, _ = _time_warp(name, overrides)
    assert run.events_rolled_back > run.committed / 2
