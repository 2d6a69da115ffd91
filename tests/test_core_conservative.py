"""Tests for the conservative (YAWNS) engine."""

from dataclasses import replace

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import ConservativeKernel, run_conservative
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
        dict(end_time=-1.0),
        dict(end_time=10.0, mapping="bogus"),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigurationError):
        EngineConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("procs", 2), ("adaptive", True), ("batch_size", 64), ("window", 2.0),
     ("gvt_interval", 8), ("n_kps", 8)],
)
def test_time_warp_field_refused_by_name(field, value):
    """YAWNS fixes the batch, window, GVT interval and KPs and runs in
    one process without a throttle: a config that sets any of them to
    a value the kernel would ignore is refused, naming the field."""
    cfg = EngineConfig(end_time=END, n_pes=4, **{field: value})
    with pytest.raises(ConfigurationError, match=f"conservative.*{field}="):
        ConservativeKernel(PholdModel(PHOLD), cfg)


def test_model_without_lookahead_rejected():
    class NoLookahead(Model):
        def build(self):
            return [LogicalProcess(0)]

        def collect_stats(self, lps):
            return {}

    with pytest.raises(ConfigurationError):
        ConservativeKernel(NoLookahead(), EngineConfig(end_time=1.0, n_pes=4))


# ----------------------------------------------------------------------
# Oracle equivalence.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def phold_oracle():
    return run_sequential(PholdModel(PHOLD), END).model_stats


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
@pytest.mark.parametrize("n_pes", [1, 2, 4])
def test_phold_matches_oracle(phold_oracle, protocol, n_pes):
    cfg = EngineConfig(end_time=END, n_pes=n_pes, mapping="striped")
    result = run_conservative(PholdModel(PHOLD), cfg)
    assert result.model_stats == phold_oracle
    assert result.run.engine == "conservative"
    assert result.run.events_rolled_back == 0  # by construction


@pytest.mark.parametrize("protocol", ["yawns"])  # the one conservative protocol
def test_hotpotato_matches_oracle(protocol):
    hcfg = HotPotatoConfig(n=4, duration=END, injector_fraction=1.0)
    oracle = run_sequential(HotPotatoModel(hcfg), END).model_stats
    cfg = EngineConfig(end_time=END, n_pes=4)
    result = run_conservative(HotPotatoModel(hcfg), cfg)
    assert result.model_stats == oracle
    assert result.run.events_rolled_back == 0


# ----------------------------------------------------------------------
# Lookahead enforcement.
# ----------------------------------------------------------------------

def test_smaller_lookahead_means_more_rounds():
    # The model declares the lookahead it guarantees: every PHOLD hop is
    # delayed by at least PholdConfig.lookahead.
    rounds = {}
    cfg = EngineConfig(end_time=END, n_pes=2, mapping="striped")
    for la in (0.02, 0.1):
        kernel = ConservativeKernel(PholdModel(replace(PHOLD, lookahead=la)), cfg)
        assert kernel.lookahead == la
        kernel.run()
        rounds[la] = kernel.gvt_rounds
    assert rounds[0.02] > rounds[0.1]


class _Ticker(LogicalProcess):
    """Counts the events it runs; what it sends is up to the subclass."""

    def __init__(self, lp_id):
        super().__init__(lp_id)
        self.state = [0]

    def reverse(self, event):  # pragma: no cover - nothing rolls back
        self.state[0] -= 1


class _Liar(Model):
    lookahead = 5.0  # claims 5.0; its LPs send each other far less

    def __init__(self, lp_class):
        self.lp_class = lp_class

    def build(self):
        return [self.lp_class(0), self.lp_class(1)]

    def collect_stats(self, lps):
        return {"ticks": tuple(lp.state[0] for lp in lps)}


def test_lookahead_violation_detected():
    # Two LPs on two PEs tick every 1.0, and LP 1 also pokes LP 0 at
    # +0.1: PE 0 has run its window up to 5.0 when a poke lands below
    # that.  Time Warp would roll PE 0 back; a conservative run raises.
    class Poker(_Ticker):
        def on_init(self):
            self.send(1.0, self.id, "tick")

        def forward(self, event):
            self.state[0] += 1
            if event.kind == "tick":
                self.send(self.now + 1.0, self.id, "tick")
                if self.id == 1:
                    self.send(self.now + 0.1, 0, "poke")

    cfg = EngineConfig(end_time=20.0, n_pes=2, mapping="striped")
    with pytest.raises(SchedulingError, match="lookahead 5.0"):
        run_conservative(_Liar(Poker), cfg)


def test_lie_that_reorders_nothing_commits_the_oracle_result():
    # One token bounced between PEs at +0.1 breaks the declared lookahead
    # but never lands below what its destination PE already ran, so the
    # run commits the oracle's result without a rollback.
    class Token(_Ticker):
        def on_init(self):
            if self.id == 0:
                self.send(6.0, self.id, "tick")

        def forward(self, event):
            self.state[0] += 1
            self.send(self.now + 0.1, 1 - self.id, "tick")

    cfg = EngineConfig(end_time=20.0, n_pes=2, mapping="striped")
    result = run_conservative(_Liar(Token), cfg)
    assert result.model_stats == run_sequential(_Liar(Token), 20.0).model_stats
    assert result.model_stats["ticks"][0] > 0
    assert result.run.events_rolled_back == 0


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

    cfg = EngineConfig(end_time=3.0, n_pes=2, mapping="striped")
    result = run_conservative(SelfTicker(), cfg)
    assert result.model_stats["ticks"][0] > 100


def test_stats_shape():
    cfg = EngineConfig(end_time=END, n_pes=2, mapping="striped")
    result = run_conservative(PholdModel(PHOLD), cfg)
    run = result.run
    assert run.committed == run.processed
    assert run.remote_sends > 0 and run.gvt_rounds > 0
    assert run.event_rate > 0
    assert run.makespan_seconds > 0
    assert len(run.per_pe_busy_seconds) == 2
