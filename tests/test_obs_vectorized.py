"""Observability parity under the model's handler table.

A run whose events the Time Warp batch executes through the model's
handler table (which it does whenever the model offers one, a full
capture attached or not) must be observationally identical to the same
population stepped through ``forward`` alone: same committed sequence,
same span phases, a clean ``repro.obs diff`` verdict.  The ``scalar``
side is a test foil: a model that declines its table.
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


def test_committed_results_identical(recordings):
    (_, scalar), (_, vector) = recordings
    assert vector.run.committed == scalar.run.committed
    assert vector.model_stats == scalar.model_stats


def test_diff_verdict_equivalent(recordings, capsys):
    (scalar_path, _), (vector_path, _) = recordings
    assert obs_main(["diff", str(scalar_path), str(vector_path)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_traced_vectorized_falls_back_to_scalar_batch(recordings):
    """The recording's stats line names no decline: its Tracer left the
    handler table in place.  (The id is kept from when a Tracer made the
    kernel fall back to a per-event batch.)"""
    (_, _), (vector_path, _) = recordings
    assert load_recording(vector_path).stats["soa_decline_reason"] == ""


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
