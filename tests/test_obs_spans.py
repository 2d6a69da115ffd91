"""Tests for the span tracer: ring semantics, engine hooks, zero overhead."""

import pytest

from repro.core.config import EngineConfig
from repro.core.conservative import run_conservative
from repro.core.engine import SequentialEngine, run_sequential
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.models.phold import PholdConfig, PholdModel
from repro.obs.capture import RunCapture
from repro.obs.recorder import SCHEMA_VERSION, load_recording
from repro.obs.spans import PHASES, Span, SpanTracer

END = 15.0
PHOLD = PholdConfig(n_lps=16, jobs_per_lp=2, remote_fraction=0.7)


# ----------------------------------------------------------------------
# SpanTracer unit behaviour.
# ----------------------------------------------------------------------
def test_capacity_and_interval_validation():
    with pytest.raises(ValueError):
        SpanTracer(capacity=0)
    with pytest.raises(ValueError):
        SpanTracer(interval=0)


def test_record_and_breakdown():
    tracer = SpanTracer(clock=lambda: 0.0)  # epoch pinned at 0.0
    tracer.record("exec", 1.0, 4.0, pe=1, n=10)
    tracer.record("rollback", 4.0, 5.0, pe=1, kp=3, lp=7, n=2)
    tracer.record("exec", 5.0, 7.0, pe=0, n=5)
    assert tracer.epoch == 0.0
    assert len(tracer) == 3
    spans = tracer.spans()
    assert [s.phase for s in spans] == ["exec", "rollback", "exec"]
    assert spans[0].dt == 3.0 and spans[0].pe == 1 and spans[0].n == 10
    assert spans[1].kp == 3 and spans[1].lp == 7
    breakdown = tracer.phase_breakdown()
    assert breakdown["exec"][0] == 2
    assert breakdown["exec"][1] == pytest.approx(5.0)
    # Shares over recorded time only, and they sum to 1.
    assert sum(share for _c, _t, share in breakdown.values()) == pytest.approx(1.0)
    assert tracer.busy_by_pe() == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}


def test_ring_wraps_but_totals_survive():
    tracer = SpanTracer(capacity=4, clock=lambda: 0.0)
    for i in range(10):
        tracer.record("gvt", float(i), float(i) + 0.5)
    assert len(tracer) == 4
    assert tracer.dropped == 6
    # The window holds the most recent spans, oldest first.
    assert [s.t0 for s in tracer.spans()] == [6.0, 7.0, 8.0, 9.0]
    # Exact totals keep counting across eviction.
    count, seconds = tracer.totals["gvt"]
    assert count == 10
    assert seconds == pytest.approx(5.0)


def test_span_round_trips_through_dict():
    s = Span(phase="rollback", t0=1.5, dt=0.25, pe=2, kp=9, lp=31, n=7)
    assert Span.from_dict(s.as_dict()) == s
    assert set(PHASES) >= {"exec", "rollback", "antimsg", "gvt"}


# ----------------------------------------------------------------------
# Engine hooks: attached behaviour and the zero-overhead contract.
# ----------------------------------------------------------------------
def test_optimistic_fast_paths_stay_installed_with_spans():
    kernel = TimeWarpKernel(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=2, n_kps=4, batch_size=32,
                     mapping="striped"),
    )
    tracer = SpanTracer()
    kernel.attach_spans(tracer)
    kernel.run()
    # Spans record at phase boundaries, never per event: the fused
    # batch loops must survive attachment (only a Tracer evicts them).
    assert kernel._batch_by_pe is not None
    assert len(tracer) > 0
    assert tracer.totals["exec"][0] > 0
    assert tracer.totals["gvt"][0] > 0


def test_detached_engines_record_exactly_nothing():
    # No tracer object exists at all when detached — the engines carry
    # a None attribute and consult it with one branch per boundary.
    engine = SequentialEngine(PholdModel(PHOLD), END)
    assert engine.spans is None
    kernel = TimeWarpKernel(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=2, n_kps=4, batch_size=32,
                     mapping="striped"),
    )
    assert kernel.spans is None
    kernel.run()
    assert kernel.spans is None


def test_spans_do_not_perturb_results():
    cfg = EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                       mapping="striped")
    plain = run_optimistic(PholdModel(PHOLD), cfg)
    traced = run_optimistic(PholdModel(PHOLD), cfg, spans=SpanTracer())
    assert traced.model_stats == plain.model_stats
    assert traced.run.committed == plain.run.committed
    assert traced.run.events_rolled_back == plain.run.events_rolled_back


def test_all_three_engines_emit_exec_spans():
    seq = SpanTracer()
    run_sequential(PholdModel(PHOLD), END, spans=seq)
    cons = SpanTracer()
    run_conservative(
        PholdModel(PHOLD), EngineConfig(end_time=END, n_pes=4),
        spans=cons,
    )
    opt = SpanTracer()
    run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                     mapping="striped"),
        spans=opt,
    )
    for tracer in (seq, cons, opt):
        assert tracer.totals["exec"][0] > 0
        assert tracer.totals["exec"][1] > 0.0
    # Rollback attribution only exists on the optimistic engine.
    assert opt.totals["rollback"][0] > 0
    assert seq.totals["rollback"][0] == 0
    assert cons.totals["rollback"][0] == 0
    # Spans carry PE attribution on the parallel engines.
    assert set(opt.busy_by_pe()) == {0, 1, 2, 3}


def test_sequential_interval_paces_exec_spans():
    tracer = SpanTracer(interval=64)
    result = run_sequential(PholdModel(PHOLD), END, spans=tracer)
    count = tracer.totals["exec"][0]
    total_n = sum(s.n for s in tracer.spans() if s.phase == "exec")
    assert total_n == result.run.committed
    # One span per full interval plus at most one tail flush.
    assert count == result.run.committed // 64 + (
        1 if result.run.committed % 64 else 0
    )


# ----------------------------------------------------------------------
# Streaming into the flight recorder (schema 3).
# ----------------------------------------------------------------------
def test_spans_stream_through_capture_and_load(tmp_path):
    out = tmp_path / "run.jsonl"
    capture = RunCapture(
        metrics_out=out, spans_out=out, meta={"engine": "optimistic"}
    )
    result = run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, n_pes=4, n_kps=8, batch_size=64,
                     mapping="striped"),
        metrics=capture.metrics,
        spans=capture.spans,
    )
    capture.finalize(result)
    rec = load_recording(out)
    assert rec.header["schema"] == SCHEMA_VERSION
    assert len(rec.spans) == len(capture.spans)
    breakdown = rec.span_breakdown()
    assert breakdown["exec"][0] == capture.spans.totals["exec"][0]
    assert rec.span_busy_by_pe().keys() == capture.spans.busy_by_pe().keys()
    # The recording's metric stream rides in the same file untouched.
    assert rec.metrics


def test_capture_dedups_spans_sink(tmp_path):
    out = tmp_path / "both.jsonl"
    capture = RunCapture(metrics_out=out, trace_out=out, spans_out=out, meta={})
    assert len(capture._sinks) == 1
    capture.finalize(None)
    separate = RunCapture(
        metrics_out=tmp_path / "m.jsonl", spans_out=tmp_path / "s.jsonl", meta={}
    )
    assert len(separate._sinks) == 2
    separate.finalize(None)
