"""Kernel observability: GVT-interval metrics, flight recorder, forensics.

The report's evaluation (§4.2) is written in kernel observables — event
rate, rollbacks, KP containment — but end-of-run aggregates cannot show
*how* a run evolved.  This package adds the missing time dimension:

* :mod:`repro.obs.metrics` — a :class:`MetricsRecorder` sampling kernel
  state once per GVT round (zero overhead when detached; the fused hot
  paths stay installed when attached),
* :mod:`repro.obs.recorder` — a schema-versioned streaming JSONL flight
  recorder (:class:`JsonlSink`, :class:`StreamingTracer`) and its loader
  (:func:`load_recording`), which reconstructs the committed-sequence
  determinism check across processes,
* :mod:`repro.obs.spans` — a :class:`SpanTracer` recording wall-clock
  phase spans (exec / rollback / antimsg / gvt / fossil / snapshot /
  transport) with PE/KP/LP attribution at phase boundaries only,
* :mod:`repro.obs.forensics` — rollback hot spots, rollback-chain
  reconstruction, rollback attribution and recording-vs-recording diff,
* :mod:`repro.obs.critpath` — committed-trace critical-path analysis
  (path length, achievable speedup bound, per-LP slack),
* :mod:`repro.obs.watch` — the live terminal dashboard behind
  ``python -m repro.obs watch``,
* :mod:`repro.obs.capture` — :class:`RunCapture`, the one-call wiring
  used by the CLIs' ``--metrics-out`` / ``--trace-out`` /
  ``--spans-out`` flags,
* ``python -m repro.obs`` — the forensics CLI (``summary``,
  ``timeline``, ``thrash``, ``critpath``, ``watch``, ``diff``).

See ``docs/OBSERVABILITY.md`` for metric definitions and the file
schema.  The package is a lazy index (:mod:`repro._lazy`): a run that
records nothing imports none of these modules.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.obs.recorder": (
        "SCHEMA_VERSION", "JsonlSink", "StreamingTracer", "RunRecording",
        "load_recording",
    ),
    "repro.obs.metrics": ("MetricSample", "MetricsRecorder"),
    "repro.obs.capture": ("RunCapture",),
    "repro.obs.spans": ("Span", "SpanTracer"),
    "repro.obs.critpath": ("CritPathReport", "critical_path"),
    "repro.obs.forensics": (
        "RollbackChain", "rollback_chains", "chain_summary",
        "rollback_attribution", "diff_recordings",
    ),
})
