"""Tests for the GVT-interval metrics sampler on all three engines."""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import run_conservative
from repro.core.engine import SequentialEngine, run_sequential
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.models.phold import PholdConfig, PholdModel
from repro.obs.metrics import MetricSample, MetricsRecorder

END = 15.0
PHOLD = PholdConfig(n_lps=16, jobs_per_lp=2, remote_fraction=0.7)


def test_interval_validation():
    with pytest.raises(ValueError):
        MetricsRecorder(interval=0)


def test_delta_computation():
    rec = MetricsRecorder()
    rec.sample(gvt=1.0, committed=10, processed=12, rolled_back=2)
    rec.sample(gvt=2.0, committed=25, processed=30, rolled_back=5)
    first, second = rec.samples
    assert (first.committed, first.processed, first.rolled_back) == (10, 12, 2)
    assert (second.committed, second.processed, second.rolled_back) == (15, 18, 3)
    assert second.round == 1


def test_kp_delta_keeps_only_movers():
    rec = MetricsRecorder()
    rec.sample(gvt=1.0, committed=0, processed=0, kp_rolled_back=[0, 3, 0])
    rec.sample(gvt=2.0, committed=0, processed=0, kp_rolled_back=[1, 3, 7])
    assert rec.samples[0].kp_rolled_back == {1: 3}
    assert rec.samples[1].kp_rolled_back == {0: 1, 2: 7}


def test_sample_round_trips_through_dict():
    rec = MetricsRecorder()
    s = rec.sample(
        gvt=3.5, committed=7, processed=9, rolled_back=2, rollbacks=1,
        stragglers=1, fossil_collected=7, pending=4, processed_depth=2,
        throttle=0.5, pool_hit_rate=0.75, kp_rolled_back=[2, 0],
    )
    assert MetricSample.from_dict(s.as_dict()) == s


def test_optimistic_samples_sum_to_totals():
    rec = MetricsRecorder()
    result = run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                     mapping="striped"),
        metrics=rec,
    )
    run = result.run
    assert rec.samples, "a GVT-round sampler must produce samples"
    assert sum(s.committed for s in rec.samples) == run.committed
    assert sum(s.processed for s in rec.samples) == run.processed
    assert sum(s.rolled_back for s in rec.samples) == run.events_rolled_back
    assert sum(s.rollbacks for s in rec.samples) == run.rollbacks
    assert sum(s.stragglers for s in rec.samples) == run.stragglers
    kp_total = sum(n for s in rec.samples for n in s.kp_rolled_back.values())
    assert kp_total == run.events_rolled_back
    assert all(s.gvt <= END for s in rec.samples)


def test_optimistic_fast_paths_stay_installed_with_metrics():
    kernel = TimeWarpKernel(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=2, n_kps=4, batch_size=32,
                     mapping="striped"),
    )
    kernel.attach_metrics(MetricsRecorder())
    kernel.run()
    # The fused batch loops are compiled unless a tracer is attached; a
    # metrics recorder must not disable them.
    assert kernel._batch_by_pe is not None


def test_metrics_do_not_perturb_results():
    plain = run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                     mapping="striped"),
    )
    observed = run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                     mapping="striped"),
        metrics=MetricsRecorder(),
    )
    assert observed.model_stats == plain.model_stats
    assert observed.run.committed == plain.run.committed
    assert observed.run.events_rolled_back == plain.run.events_rolled_back


def test_sequential_sampling_interval():
    rec = MetricsRecorder(interval=100)
    result = run_sequential(PholdModel(PHOLD), END, metrics=rec)
    run = result.run
    assert sum(s.committed for s in rec.samples) == run.committed
    # One sample per full interval plus the barrier sample.
    assert len(rec.samples) == run.committed // 100 + 1
    assert rec.samples[-1].gvt == END
    # Commit-as-you-go engines have no rollback activity or depth.
    assert all(s.rolled_back == 0 and s.processed_depth == 0 for s in rec.samples)
    # GVT (event timestamps) is nondecreasing.
    gvts = [s.gvt for s in rec.samples]
    assert gvts == sorted(gvts)


def test_sequential_detached_engine_has_no_recorder():
    engine = SequentialEngine(PholdModel(PHOLD), END)
    assert engine.metrics is None
    engine.run()


def test_conservative_samples_per_round():
    rec = MetricsRecorder()
    result = run_conservative(
        PholdModel(PHOLD), EngineConfig(end_time=END, n_pes=4), metrics=rec
    )
    run = result.run
    assert rec.samples
    assert sum(s.committed for s in rec.samples) == run.committed
    assert all(s.gvt <= END for s in rec.samples)


def test_streaming_only_mode_keeps_nothing():
    class NullSink:
        def __init__(self):
            self.metric_lines = 0

        def write_metric(self, sample):
            self.metric_lines += 1

    sink = NullSink()
    rec = MetricsRecorder(sink, keep=False)
    run_sequential(PholdModel(PHOLD), END, metrics=rec)
    assert rec.samples == []
    assert sink.metric_lines == len(rec) > 0
