"""Capture plumbing: attach telemetry to a run and finalise the files.

The CLIs (``repro.hotpotato``, ``repro.experiments``,
``benchmarks/profile_kernel.py``) all need the same four steps — open
sink(s), build a :class:`~repro.obs.metrics.MetricsRecorder` and/or
:class:`~repro.obs.recorder.StreamingTracer`, attach them to an engine,
and write the final stats line when the run ends.  :class:`RunCapture`
packages those steps; metrics and trace may go to separate files or
share one (pass the same path twice — record types are tagged, so one
file holds both streams).

Every CLI run builds a capture, most of them with no output requested,
so the sink, recorder, tracer and span modules are imported only by a
capture that writes something.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.core.result import RunResult

__all__ = ["RunCapture"]


class RunCapture:
    """Telemetry capture for one run: sinks + recorder + tracer.

    Parameters
    ----------
    metrics_out:
        Path for GVT-interval metric samples, or ``None`` to skip
        metrics (fast paths stay installed either way — metrics sample
        only at GVT boundaries).
    trace_out:
        Path for the full event-lifecycle trace, or ``None`` to skip
        tracing (the optimistic kernel's batch then calls the tracer
        once per executed event, as it does for any tracer).
    spans_out:
        Path for wall-clock phase spans, or ``None`` to skip span
        tracing (spans record at phase boundaries only, never per
        event).  Liveness-watchdog ``health`` lines go to the metrics
        recording (:attr:`health_sink`), when there is one.
    meta:
        Free-form run metadata for the header line (engine, workload,
        seed, CLI arguments ...).
    interval:
        Sequential-engine sampling period, in events (see
        :class:`~repro.obs.metrics.MetricsRecorder`).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`.  Its summary goes into
        the header and every scheduled fault event is written as a
        ``fault`` line up front, so forensics can line fault times up
        against the committed trace without the plan file in hand.
    injection_plan:
        Optional :class:`repro.scenarios.InjectionPlan`.  Same treatment
        as the fault plan: summary in the header, every adversary
        decision written as an ``adversary`` line up front.
    """

    def __init__(
        self,
        metrics_out: str | Path | None = None,
        trace_out: str | Path | None = None,
        spans_out: str | Path | None = None,
        *,
        meta: Mapping | None = None,
        interval: int = 1024,
        fault_plan=None,
        injection_plan=None,
    ) -> None:
        self.meta = dict(meta) if meta else {}
        if fault_plan is not None:
            self.meta.setdefault("fault_events", len(fault_plan.events))
            self.meta.setdefault("fault_seed", fault_plan.seed)
            if fault_plan.has_transport_faults:
                self.meta.setdefault("fault_drop_rate", fault_plan.drop_rate)
                self.meta.setdefault("fault_dup_rate", fault_plan.dup_rate)
                self.meta.setdefault("fault_delay_rate", fault_plan.delay_rate)
        if injection_plan is not None:
            self.meta.setdefault("adversary", injection_plan.strategy)
            self.meta.setdefault("adversary_rate", injection_plan.rate)
            self.meta.setdefault("adversary_seed", injection_plan.seed)
            self.meta.setdefault(
                "adversary_generated", len(injection_plan.entries)
            )
        self._sinks: list = []
        self.metrics = self.tracer = self.spans = None
        self._metrics_sink = self._trace_sink = self._spans_sink = None
        if all(o is None for o in (metrics_out, trace_out, spans_out)):
            return
        from repro.obs.metrics import MetricsRecorder
        from repro.obs.recorder import JsonlSink, StreamingTracer
        from repro.obs.spans import SpanTracer

        metrics_sink = trace_sink = spans_sink = None
        if metrics_out is not None:
            metrics_sink = JsonlSink(metrics_out)
            self._sinks.append(metrics_sink)
        if trace_out is not None:
            if metrics_sink is not None and Path(trace_out) == Path(metrics_out):
                trace_sink = metrics_sink
            else:
                trace_sink = JsonlSink(trace_out)
                self._sinks.append(trace_sink)
        if spans_out is not None:
            for existing in self._sinks:
                if Path(spans_out) == existing.path:
                    spans_sink = existing
                    break
            else:
                spans_sink = JsonlSink(spans_out)
                self._sinks.append(spans_sink)
        for sink in self._sinks:
            sink.write_header(self.meta)
            if fault_plan is not None:
                for fev in fault_plan.events:
                    sink.write_fault(fev.to_dict())
            if injection_plan is not None:
                for iev in injection_plan.entries:
                    sink.write_adversary(iev.to_dict())
        if metrics_sink is not None:
            self.metrics = MetricsRecorder(metrics_sink, keep=False, interval=interval)
        if trace_sink is not None:
            self.tracer = StreamingTracer(trace_sink)
        if spans_sink is not None:
            self.spans = SpanTracer(sink=spans_sink)
        self._metrics_sink = metrics_sink
        self._trace_sink = trace_sink
        self._spans_sink = spans_sink

    @property
    def health_sink(self):
        """Sink for watchdog ``health`` lines — the metrics recording's,
        or None; pass to ``Watchdog(cfg, sink=capture.health_sink)``."""
        return self._metrics_sink

    @property
    def active(self) -> bool:
        """True when at least one output was requested."""
        return bool(self._sinks)

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.ckpt): a checkpoint records how far
    # each sink has written, so a resumed run can truncate the files back
    # to that point and continue producing byte-identical output.
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Flush sinks and return everything :meth:`resume` needs."""
        from repro.errors import SnapshotError

        for sink in self._sinks:
            if sink.path is None:
                raise SnapshotError(
                    "cannot checkpoint a stream-backed telemetry sink; "
                    "record to files to use checkpointing"
                )
        state: dict = {
            "meta": dict(self.meta),
            "sinks": [
                {"path": str(sink.path), **sink.checkpoint_state()}
                for sink in self._sinks
            ],
            "metrics_sink": (
                self._sinks.index(self._metrics_sink)
                if self._metrics_sink is not None
                else None
            ),
            "trace_sink": (
                self._sinks.index(self._trace_sink)
                if self._trace_sink is not None
                else None
            ),
            "spans_sink": (
                self._sinks.index(self._spans_sink)
                if self._spans_sink is not None
                else None
            ),
            "metrics": None,
            "tracer": None,
        }
        recorder = self.metrics
        if recorder is not None:
            state["metrics"] = {
                "prev": dict(recorder._prev),
                "prev_kp": (
                    list(recorder._prev_kp)
                    if recorder._prev_kp is not None
                    else None
                ),
                "n_samples": recorder.n_samples,
                "interval": recorder.interval,
            }
        if self.tracer is not None:
            state["tracer"] = dict(self.tracer.counts)
        return state

    @classmethod
    def resume(cls, state: dict) -> "RunCapture":
        """Rebuild a capture from :meth:`checkpoint_state` output.

        Each sink's file is truncated back to the checkpointed byte
        offset and reopened for append; headers are *not* rewritten, and
        the metric recorder's delta baselines and the tracer's counts are
        restored, so the finished files are byte-identical to an
        uninterrupted run's.
        """
        from repro.obs.metrics import MetricsRecorder
        from repro.obs.recorder import JsonlSink, StreamingTracer
        from repro.obs.spans import SpanTracer

        cap = cls.__new__(cls)
        cap.meta = dict(state["meta"])
        cap._sinks = [
            JsonlSink.resume(s["path"], s) for s in state["sinks"]
        ]
        mi, ti = state["metrics_sink"], state["trace_sink"]
        si = state.get("spans_sink")  # absent in pre-span snapshots
        cap._metrics_sink = cap._sinks[mi] if mi is not None else None
        cap._trace_sink = cap._sinks[ti] if ti is not None else None
        cap._spans_sink = cap._sinks[si] if si is not None else None
        # Spans are wall-clock measurements, the one non-deterministic
        # stream — a resumed run starts a fresh tracer rather than
        # pretending to continue timings from a dead process.
        cap.spans = (
            SpanTracer(sink=cap._spans_sink)
            if cap._spans_sink is not None
            else None
        )
        cap.metrics = None
        if state["metrics"] is not None:
            ms = state["metrics"]
            recorder = MetricsRecorder(
                cap._metrics_sink, keep=False, interval=ms["interval"]
            )
            recorder._prev.update(ms["prev"])
            recorder._prev_kp = (
                list(ms["prev_kp"]) if ms["prev_kp"] is not None else None
            )
            recorder.n_samples = ms["n_samples"]
            cap.metrics = recorder
        cap.tracer = None
        if state["tracer"] is not None:
            cap.tracer = StreamingTracer(cap._trace_sink)
            cap.tracer.counts.update(state["tracer"])
        return cap

    def attach(self, engine) -> None:
        """Attach the recorder/tracer/spans to any of the three engines."""
        if self.metrics is not None:
            engine.attach_metrics(self.metrics)
        if self.tracer is not None:
            engine.attach_tracer(self.tracer)
        if self.spans is not None:
            engine.attach_spans(self.spans)

    def finalize(self, result: RunResult | None = None) -> None:
        """Write the final stats line(s) and close owned files."""
        if result is not None:
            stats = result.run.as_dict()
            for sink in self._sinks:
                sink.write_stats(stats)
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "RunCapture":
        return self

    def __exit__(self, *exc) -> None:
        for sink in self._sinks:
            sink.close()
