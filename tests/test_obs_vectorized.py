"""Observability parity under band stepping.

A run the Time Warp kernel steps through the model's vector plan (which
it does whenever the model offers one) must be observationally identical
to the same population stepped one event at a time: same committed
sequence, same summary and timeline behaviour, a clean ``repro.obs diff``
verdict — while the plan's own activity (``soa_batches`` /
``soa_lps_stepped``) shows up in the metric stream so the summary can
report it.  The ``scalar`` side is a test foil: a model that declines
its plan.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.optimistic import run_optimistic
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.obs.__main__ import main as obs_main
from repro.obs.capture import RunCapture
from repro.obs.recorder import load_recording
from tests.kernel_models import plan_declined

SEED = 0xB5EED
CFG = HotPotatoConfig(n=4, duration=10.0, injector_fraction=1.0)


def _record(tmp_path, executor):
    out = tmp_path / f"{executor}.jsonl"
    capture = RunCapture(
        metrics_out=out, trace_out=out, spans_out=out,
        meta={"engine": "optimistic", "workload": "hotpotato",
              "executor": executor},
    )
    model = HotPotatoModel(CFG)
    if executor == "scalar":
        plan_declined(model)
    result = run_optimistic(
        model,
        EngineConfig(end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=64,
                     seed=SEED),
        tracer=capture.tracer,
        metrics=capture.metrics,
        spans=capture.spans,
    )
    capture.finalize(result)
    return out, result


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("vec-obs")
    scalar = _record(tmp, "scalar")
    vector = _record(tmp, "vectorized")
    return scalar, vector


@pytest.fixture(scope="module")
def soa_recording(tmp_path_factory):
    """A vectorized run WITHOUT a tracer.

    Attaching a Tracer evicts the fused execute and with it the plan's
    compiled SoA batch (the kernel falls back to the scalar batch, which
    is observationally identical but never increments ``soa_*``).  To see
    real SoA activity in the metric stream the run must be trace-free —
    metrics and spans ride along without perturbing the fast path.
    """
    out = tmp_path_factory.mktemp("vec-soa") / "vectorized-notrace.jsonl"
    capture = RunCapture(
        metrics_out=out, spans_out=out,
        meta={"engine": "optimistic", "workload": "hotpotato",
              "executor": "vectorized"},
    )
    result = run_optimistic(
        HotPotatoModel(CFG),
        EngineConfig(end_time=CFG.duration, n_pes=4, n_kps=16, batch_size=64,
                     seed=SEED),
        metrics=capture.metrics,
        spans=capture.spans,
    )
    capture.finalize(result)
    return out, result


def test_committed_results_identical(recordings):
    (_, scalar), (_, vector) = recordings
    assert vector.run.committed == scalar.run.committed
    assert vector.model_stats == scalar.model_stats


def test_diff_verdict_equivalent(recordings, capsys):
    (scalar_path, _), (vector_path, _) = recordings
    assert obs_main(["diff", str(scalar_path), str(vector_path)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_summary_surfaces_soa_counters(recordings, soa_recording, capsys):
    (scalar_path, _), _ = recordings
    soa_path, soa_result = soa_recording
    assert obs_main(["summary", str(soa_path)]) == 0
    out = capsys.readouterr().out
    assert "soa_batches" in out
    assert "span phases" in out
    # The trace-free vectorized run carries real SoA activity in its
    # metric stream; a traced run (scalar or vectorized) reports zero
    # because the tracer forces the scalar batch.
    vec = load_recording(soa_path)
    sca = load_recording(scalar_path)
    assert sum(s.soa_batches for s in vec.metrics) > 0
    assert sum(s.soa_lps_stepped for s in vec.metrics) > 0
    assert sum(s.soa_batches for s in sca.metrics) == 0
    # The cumulative stream total matches the run's own stats.
    assert sum(s.soa_batches for s in vec.metrics) == soa_result.run.soa_batches


def test_traced_vectorized_falls_back_to_scalar_batch(recordings):
    # With a Tracer attached the plan batch is evicted, so the traced
    # vectorized recording shows no SoA counters — documented behaviour.
    (_, _), (vector_path, _) = recordings
    vec = load_recording(vector_path)
    assert sum(s.soa_batches for s in vec.metrics) == 0


def test_timeline_vectorized_group(recordings, soa_recording, capsys):
    (scalar_path, _), _ = recordings
    soa_path, _ = soa_recording
    assert obs_main(
        ["timeline", str(soa_path), "--metric", "vectorized"]
    ) == 0
    assert "soa_batches" in capsys.readouterr().out
    # On the scalar recording the group has no nonzero series.
    assert obs_main(
        ["timeline", str(scalar_path), "--metric", "vectorized"]
    ) == 0
    assert "no nonzero series" in capsys.readouterr().out


def test_span_streams_parity(recordings):
    """Both executors record spans of the same phases (wall times differ)."""
    (scalar_path, _), (vector_path, _) = recordings
    sca = load_recording(scalar_path)
    vec = load_recording(vector_path)
    assert set(sca.span_breakdown()) == set(vec.span_breakdown())
    assert sca.span_breakdown()["exec"][0] > 0
    assert set(sca.span_busy_by_pe()) == set(vec.span_busy_by_pe())
    # Committed sequences stay the determinism anchor.
    assert sca.committed_sequence() == vec.committed_sequence()
