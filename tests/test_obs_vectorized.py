"""Observability parity under the model's handler table.

A Time Warp run, whose batch executes every event through the model's
handler table (a full capture attached or not), must be observationally
equivalent to the sequential oracle's recording: same committed
sequence, the oracle's span phases among its own, a clean ``repro.obs
diff`` verdict.  The ``scalar`` side is that oracle.
"""

import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import run_sequential
from repro.core.optimistic import run_optimistic
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.obs.__main__ import main as obs_main
from repro.obs.capture import RunCapture
from repro.obs.recorder import load_recording

SEED = 0xB5EED
CFG = HotPotatoConfig(n=4, duration=10.0, injector_fraction=1.0)


def _record(tmp_path, executor):
    out = tmp_path / f"{executor}.jsonl"
    engine = "sequential" if executor == "scalar" else "optimistic"
    capture = RunCapture(
        metrics_out=out, trace_out=out, spans_out=out,
        meta={"engine": engine, "workload": "hotpotato",
              "executor": executor},
    )
    hooks = dict(
        tracer=capture.tracer, metrics=capture.metrics, spans=capture.spans
    )
    if executor == "scalar":
        result = run_sequential(HotPotatoModel(CFG), CFG.duration, seed=SEED, **hooks)
    else:
        result = run_optimistic(
            HotPotatoModel(CFG),
            EngineConfig(end_time=CFG.duration, n_pes=4, n_kps=16,
                         batch_size=64, seed=SEED),
            **hooks,
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
    stats = load_recording(vector_path).stats
    assert not [k for k, v in stats.items() if k.endswith("decline_reason") and v]


def test_span_streams_parity(recordings):
    """The oracle's span phases are among Time Warp's (which adds GVT,
    fossil collection and rollback), wall times apart."""
    (scalar_path, _), (vector_path, _) = recordings
    sca = load_recording(scalar_path)
    vec = load_recording(vector_path)
    assert set(sca.span_breakdown()) <= set(vec.span_breakdown())
    assert sca.span_breakdown()["exec"][0] > 0
    assert vec.span_breakdown()["exec"][0] > 0
    assert set(sca.span_busy_by_pe()) <= set(vec.span_busy_by_pe())
    # Committed sequences stay the determinism anchor.
    assert sca.committed_sequence() == vec.committed_sequence()


#: The stats key recordings made before every engine ran the handler
#: table carried (the Time Warp kernel's reason for not using it).
_RETIRED_KEY = "_".join(("soa", "decline", "reason"))


def test_recording_with_retired_decline_key_loads(recordings, tmp_path, capsys):
    """An older recording whose stats line still names the retired key
    loads as it stands, and ``repro.obs summary`` prints it."""
    (_, _), (vector_path, _) = recordings
    lines = vector_path.read_text().splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc.get("t") == "stats":
            doc[_RETIRED_KEY] = "policy 'greedy' is not the Busch policy"
            lines[i] = json.dumps(doc)
    old = tmp_path / "old.jsonl"
    old.write_text("\n".join(lines) + "\n")
    rec = load_recording(old)
    assert rec.stats[_RETIRED_KEY].startswith("policy")
    assert rec.committed_sequence() == load_recording(vector_path).committed_sequence()
    assert obs_main(["summary", str(old)]) == 0
    out = capsys.readouterr().out
    assert "committed" in out
