"""Tests for the streaming flight recorder: JSONL sink, loader, and the

cross-process determinism check (the report's Attachment-3 comparison
reconstructed from files instead of in-memory tracers).
"""

import io
import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.core.trace import COMMIT, EXEC, UNDO, Tracer
from repro.models.phold import PholdConfig, PholdModel
from repro.obs.capture import RunCapture
from repro.obs.metrics import MetricsRecorder
from repro.obs.recorder import (
    SCHEMA_VERSION,
    JsonlSink,
    StreamingTracer,
    load_recording,
)

END = 15.0
PHOLD = PholdConfig(n_lps=16, jobs_per_lp=2, remote_fraction=0.7)
OPT = dict(n_pes=4, n_kps=8, batch_size=64, mapping="striped")


def record_run(path, *, parallel, seed=7, trace=True, metrics=True):
    """Record one seeded phold run to ``path``; returns the RunResult."""
    capture = RunCapture(
        metrics_out=path if metrics else None,
        trace_out=path if trace else None,
        meta={"engine": "optimistic" if parallel else "sequential"},
    )
    if parallel:
        result = run_optimistic(
            PholdModel(PHOLD),
            EngineConfig(end_time=END, seed=seed, **OPT),
            tracer=capture.tracer,
            metrics=capture.metrics,
        )
    else:
        result = run_sequential(
            PholdModel(PHOLD),
            END,
            seed=seed,
            tracer=capture.tracer,
            metrics=capture.metrics,
        )
    capture.finalize(result)
    return result


# ----------------------------------------------------------------------
# Sink mechanics.
# ----------------------------------------------------------------------
def test_sink_writes_schema_header_first():
    buf = io.StringIO()
    with JsonlSink(buf) as sink:
        sink.write_header({"engine": "test"})
    lines = buf.getvalue().strip().splitlines()
    doc = json.loads(lines[0])
    assert doc == {"t": "header", "schema": SCHEMA_VERSION, "engine": "test"}


def test_empty_recording_is_loadable():
    buf = io.StringIO()
    JsonlSink(buf).close()
    rec = load_recording(io.StringIO(buf.getvalue()))
    assert rec.records == [] and rec.metrics == [] and rec.stats is None


def test_loader_rejects_future_schema(tmp_path):
    p = tmp_path / "future.jsonl"
    p.write_text(json.dumps({"t": "header", "schema": SCHEMA_VERSION + 1}) + "\n")
    with pytest.raises(ValueError, match="schema"):
        load_recording(p)


def test_loader_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"t": "header", "schema": 1}\nnot json\n')
    with pytest.raises(ValueError, match="not valid JSON"):
        load_recording(p)
    p.write_text('{"t": "header", "schema": 1}\n{"t": "mystery"}\n')
    with pytest.raises(ValueError, match="unknown line type"):
        load_recording(p)
    p.write_text('{"t": "trace", "a": "EXEC"}\n')
    with pytest.raises(ValueError, match="missing header"):
        load_recording(p)
    p.write_text("")
    with pytest.raises(ValueError, match="missing header"):
        load_recording(p)


def test_streaming_tracer_counts_match_in_memory(tmp_path):
    stream_path = tmp_path / "stream.jsonl"
    sink = JsonlSink(stream_path)
    streaming = StreamingTracer(sink)
    run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, seed=7, **OPT),
        tracer=streaming,
    )
    sink.close()
    in_memory = Tracer()
    run_optimistic(
        PholdModel(PHOLD),
        EngineConfig(end_time=END, seed=7, **OPT),
        tracer=in_memory,
    )
    assert streaming.counts == in_memory.counts
    rec = load_recording(stream_path)
    assert rec.counts == in_memory.counts
    assert rec.committed_sequence() == in_memory.committed_sequence()


# ----------------------------------------------------------------------
# Round trip and the cross-process determinism check.
# ----------------------------------------------------------------------
def test_round_trip_preserves_stats_and_metrics(tmp_path):
    path = tmp_path / "run.jsonl"
    result = record_run(path, parallel=True)
    rec = load_recording(path)
    assert rec.header["engine"] == "optimistic"
    assert rec.stats == result.run.as_dict()
    assert rec.stats["throttle_final_factor"] == 1.0  # as_dict carries it
    assert sum(s.committed for s in rec.metrics) == result.run.committed
    assert rec.counts[EXEC] == result.run.processed
    assert rec.counts[UNDO] == result.run.events_rolled_back
    assert rec.counts[COMMIT] == result.run.committed


def test_cross_process_determinism_via_files(tmp_path):
    """The §Attachment-3 check through the file format: a seeded

    sequential run and a seeded optimistic run, exported to JSONL,
    reloaded, must commit the identical event sequence.
    """
    seq_path = tmp_path / "seq.jsonl"
    opt_path = tmp_path / "opt.jsonl"
    record_run(seq_path, parallel=False, seed=7)
    record_run(opt_path, parallel=True, seed=7)
    seq = load_recording(seq_path)
    opt = load_recording(opt_path)
    assert opt.counts[UNDO] > 0  # the check below is non-trivial
    assert seq.committed_sequence() == opt.committed_sequence()


def test_different_seeds_yield_different_sequences(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    record_run(a, parallel=True, seed=7)
    record_run(b, parallel=True, seed=8)
    assert load_recording(a).committed_sequence() != load_recording(b).committed_sequence()


def test_metrics_only_recording_refuses_sequence_check(tmp_path):
    path = tmp_path / "metrics.jsonl"
    record_run(path, parallel=True, trace=False)
    rec = load_recording(path)
    assert rec.metrics and not rec.records
    with pytest.raises(ValueError, match="no trace records"):
        rec.committed_sequence()


def test_incomplete_trace_refuses_sequence_check(tmp_path):
    """A recording whose stats promise more commits than the trace holds

    (e.g. a truncated file) must not produce a silently partial sequence.
    """
    path = tmp_path / "run.jsonl"
    record_run(path, parallel=True)
    lines = path.read_text().splitlines()
    kept, dropped_one = [], False
    for line in lines:
        doc = json.loads(line)
        if not dropped_one and doc.get("t") == "trace" and doc["a"] == COMMIT:
            dropped_one = True
            continue
        kept.append(line)
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="trimmed"):
        load_recording(path).committed_sequence()


def test_shared_sink_single_header(tmp_path):
    path = tmp_path / "combined.jsonl"
    record_run(path, parallel=True)
    headers = [
        line
        for line in path.read_text().splitlines()
        if json.loads(line).get("t") == "header"
    ]
    assert len(headers) == 1


def test_capture_separate_files(tmp_path):
    m = tmp_path / "metrics.jsonl"
    t = tmp_path / "trace.jsonl"
    capture = RunCapture(metrics_out=m, trace_out=t, meta={"engine": "sequential"})
    result = run_sequential(
        PholdModel(PHOLD), END, tracer=capture.tracer, metrics=capture.metrics
    )
    capture.finalize(result)
    mrec, trec = load_recording(m), load_recording(t)
    assert mrec.metrics and not mrec.records
    assert trec.records and not trec.metrics
    assert mrec.stats == trec.stats == result.run.as_dict()


def test_inactive_capture_is_a_no_op(tmp_path):
    capture = RunCapture()
    assert not capture.active
    assert capture.tracer is None and capture.metrics is None
    capture.finalize(None)  # nothing to close, nothing raised


def test_metrics_recorder_streams_bounded(tmp_path):
    path = tmp_path / "stream.jsonl"
    with JsonlSink(path) as sink:
        rec = MetricsRecorder(sink, keep=False, interval=50)
        run_sequential(PholdModel(PHOLD), END, metrics=rec)
    assert rec.samples == []  # nothing accumulated in memory
    loaded = load_recording(path)
    assert len(loaded.metrics) == len(rec)


def test_metric_sample_loader_defaults_old_recordings():
    from repro.obs.metrics import MetricSample

    rec = MetricsRecorder()
    run_sequential(PholdModel(PHOLD), END, metrics=rec)
    d = rec.samples[0].as_dict()
    # A recording that still carries counters deleted since (the
    # band-stepping pair, the lazy cancellation pair, and a made-up one)
    # loads: keys are read by name, so the extra ones are ignored.
    d.update(
        soa_batches=4, soa_lps_stepped=9, lazy_hits=5, antimsg_batches=2,
        a_counter_deleted_since=3,
    )
    sample = MetricSample.from_dict(d)
    assert not hasattr(sample, "soa_batches")
    assert not hasattr(sample, "lazy_hits")
    assert sample == rec.samples[0]
