"""Tests for the conservative (YAWNS) engine."""

import pytest

from repro.core.conservative import (
    ConservativeConfig,
    ConservativeKernel,
    run_conservative,
)
from repro.core.engine import run_sequential
from repro.core.lp import LogicalProcess, Model
from repro.errors import ConfigurationError, SchedulingError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel

END = 15.0
PHOLD = PholdConfig(n_lps=24, jobs_per_lp=3, remote_fraction=0.7)


# ----------------------------------------------------------------------
# Config validation.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(end_time=0.0),
        dict(end_time=10.0, n_pes=0),
        dict(end_time=10.0, lookahead=0.0),
        dict(end_time=10.0, mapping="bogus"),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigurationError):
        ConservativeConfig(**kwargs)


def test_model_without_lookahead_rejected():
    class NoLookahead(Model):
        def build(self):
            return [LogicalProcess(0)]

        def collect_stats(self, lps):
            return {}

    with pytest.raises(ConfigurationError):
        ConservativeKernel(NoLookahead(), ConservativeConfig(end_time=1.0))


# ----------------------------------------------------------------------
# Oracle equivalence.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def phold_oracle():
    return run_sequential(PholdModel(PHOLD), END).model_stats


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
@pytest.mark.parametrize("n_pes", [1, 2, 4])
def test_phold_matches_oracle(phold_oracle, protocol, n_pes):
    cfg = ConservativeConfig(end_time=END, n_pes=n_pes, mapping="striped")
    result = run_conservative(PholdModel(PHOLD), cfg)
    assert result.model_stats == phold_oracle
    assert result.run.engine == "conservative"
    assert result.run.events_rolled_back == 0  # by construction


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_hotpotato_matches_oracle(protocol):
    hcfg = HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(hcfg), END).model_stats
    cfg = ConservativeConfig(end_time=END, n_pes=4)
    result = run_conservative(HotPotatoModel(hcfg), cfg)
    assert result.model_stats == oracle


def test_explicit_lookahead_overrides_model():
    cfg = ConservativeConfig(
        end_time=END, n_pes=2, lookahead=0.05, mapping="striped"
    )
    kernel = ConservativeKernel(PholdModel(PHOLD), cfg)
    assert kernel.lookahead == 0.05


# ----------------------------------------------------------------------
# Lookahead enforcement.
# ----------------------------------------------------------------------

def test_smaller_lookahead_means_more_rounds():
    # Claimed lookahead must stay within the model's real guarantee (0.1
    # for this PHOLD config) — we can only under-promise.
    rounds = {}
    for la in (0.02, 0.1):
        cfg = ConservativeConfig(
            end_time=END, n_pes=2, lookahead=la, mapping="striped"
        )
        kernel = ConservativeKernel(PholdModel(PHOLD), cfg)
        kernel.run()
        rounds[la] = kernel.rounds
    assert rounds[0.02] > rounds[0.1]


def test_lookahead_violation_detected():
    # Lookahead governs cross-PE messages, so the liar must talk to an LP
    # on another PE to be caught (self-sends at any delay are legal).
    class Liar(Model):
        lookahead = 5.0  # claims 5.0 but sends cross-LP at +0.1

        def build(self):
            class LiarLP(LogicalProcess):
                def on_init(self):
                    if self.id == 0:
                        self.send(6.0, self.id, "tick")

                def forward(self, event):
                    self.send(self.now + 0.1, 1 - self.id, "tick")

                def reverse(self, event):  # pragma: no cover
                    pass

            return [LiarLP(0), LiarLP(1)]

        def collect_stats(self, lps):
            return {}

    cfg = ConservativeConfig(end_time=20.0, n_pes=2, mapping="striped")
    with pytest.raises(SchedulingError):
        run_conservative(Liar(), cfg)


def test_self_sends_below_lookahead_are_legal():
    # A server's own completion events may be arbitrarily close in time.
    class SelfTicker(Model):
        lookahead = 1.0

        def build(self):
            class TickLP(LogicalProcess):
                def __init__(self, lp_id):
                    super().__init__(lp_id)
                    self.state = [0]

                def on_init(self):
                    self.send(1.0, self.id, "tick")

                def forward(self, event):
                    self.state[0] += 1
                    self.send(self.now + 0.01, self.id, "tick")

                def reverse(self, event):  # pragma: no cover
                    self.state[0] -= 1

            return [TickLP(0), TickLP(1)]

        def collect_stats(self, lps):
            return {"ticks": tuple(lp.state[0] for lp in lps)}

    cfg = ConservativeConfig(end_time=3.0, n_pes=2, mapping="striped")
    result = run_conservative(SelfTicker(), cfg)
    assert result.model_stats["ticks"][0] > 100


def test_stats_shape():
    cfg = ConservativeConfig(end_time=END, n_pes=2, mapping="striped")
    result = run_conservative(PholdModel(PHOLD), cfg)
    run = result.run
    assert run.committed == run.processed
    assert run.remote_sends > 0 and run.gvt_rounds > 0
    assert run.event_rate > 0
    assert run.makespan_seconds > 0
    assert len(run.per_pe_busy_seconds) == 2
