"""The streaming flight recorder: schema-versioned JSONL in, forensics out.

One recording file is a sequence of JSON lines, each tagged with a type:

* ``{"t": "header", "schema": 1, "engine": ..., ...}`` — written first;
  carries the schema version and free-form run metadata.
* ``{"t": "trace", "a": "EXEC"|"UNDO"|"COMMIT", "ts": ..., "origin":
  ..., "seq": ..., "dst": ..., "kind": ...}`` — one event lifecycle
  transition (see :class:`~repro.core.trace.TraceRecord`).
* ``{"t": "metric", ...}`` — one GVT-interval
  :class:`~repro.obs.metrics.MetricSample`.
* ``{"t": "fault", "step": ..., "kind": ..., "node": ..., "direction":
  ...}`` — one scheduled fault-plan event (schema 2; see
  :mod:`repro.faults`).  Written up front when a run carries a fault
  plan, so forensics can line fault times up against the trace.
* ``{"t": "span", "ph": ..., "t0": ..., "dt": ..., "pe": ..., "kp":
  ..., "lp": ..., "n": ...}`` — one timed engine-phase occurrence
  (schema 3; see :mod:`repro.obs.spans`).  Span timings are wall-clock
  and therefore the one *nondeterministic* line type: determinism
  checks (``committed_sequence``, diff, critpath) never read them.
* ``{"t": "adversary", "step": ..., "node": ..., "dest": ...}`` — one
  scripted adversarial injection decision (schema 4; see
  :mod:`repro.scenarios.adversary`).  Like faults, written up front when
  a run carries an injection plan, so forensics can line the adversary's
  workload up against the trace.
* ``{"t": "health", "detector": ..., "action": ..., "engine": ...,
  "boundary": ..., "position": ..., "wall": ...}`` — one liveness
  watchdog trip and the action (throttle or abort) taken for it
  (schema 5; see :mod:`repro.health`).  Like spans, health lines carry
  wall-clock fields and are never read by determinism checks.
* ``{"t": "stats", ...}`` — the final
  :class:`~repro.core.stats.RunStats`, written once at run end.

Writers (:class:`JsonlSink`, :class:`StreamingTracer`) are
**write-through**: nothing accumulates in memory, so a recording can
outlive any in-memory :class:`~repro.core.trace.Tracer` limit.  The
loader (:func:`load_recording`) reconstructs the run — including the
``committed_sequence()`` the determinism check compares — from the file
alone, so the report's strongest repeatability check works *across
processes*: record a sequential run in one process, an optimistic run in
another, and diff the files.

Floats survive the round trip exactly (``json`` emits shortest-repr
floats and parses them back bit-identically), so sequence comparison on
reloaded recordings is as strict as the in-memory check.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable, Mapping

from repro.core.trace import COMMIT, EXEC, TRIMMED_COMMITS_MSG, UNDO, TraceRecord
from repro.obs.metrics import MetricSample
from repro.obs.spans import Span

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "JsonlSink",
    "StreamingTracer",
    "RunRecording",
    "load_recording",
]

#: Bump when a line type gains/loses/renames fields; the loader refuses
#: files from a future schema rather than misreading them.  Version 2
#: added the ``fault`` line type, version 3 the ``span`` line type,
#: version 4 the ``adversary`` line type, and version 5 the ``health``
#: line type (all purely additive — every schema-N file is also a valid
#: schema-N+1 file, so the loader accepts all five).
SCHEMA_VERSION = 5
SUPPORTED_SCHEMAS = (1, 2, 3, 4, 5)

_COMPACT = {"separators": (",", ":"), "sort_keys": True}


class JsonlSink:
    """Write-through JSONL writer for one recording file.

    Accepts a path (opened/closed by the sink) or an open text stream
    (left open — the caller owns it).  Usable as a context manager.  The
    header line is written on first use; pass run metadata early via
    :meth:`write_header` to make it informative.

    Crash tolerance: each record is written as one atomic string (never
    a partial ``write`` per field), so a crash can truncate at most the
    final line; :meth:`close` fsyncs path-opened files so a completed
    recording survives power loss; and the loader tolerates (and counts)
    a truncated final line.  The sink tracks its byte offset
    (``self.bytes``) so a checkpoint can record exactly how much of the
    file is trusted and :meth:`resume` can truncate back to it.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self.path: Path | None = Path(target)
            self._fh: IO[str] = self.path.open("w")
            self._owns = True
        else:
            self.path = None
            self._fh = target
            self._owns = False
        self._header_written = False
        self.lines = 0
        #: Bytes this sink has written.  JSON output is pure ASCII
        #: (``json.dumps`` escapes by default), so character count equals
        #: byte count — no encoder state to track.
        self.bytes = 0

    @classmethod
    def resume(cls, target: str | Path, state: Mapping) -> "JsonlSink":
        """Reopen a recording at a checkpointed offset.

        Truncates ``target`` to ``state["bytes"]`` — discarding anything
        a crashed run wrote past its last checkpoint, including any
        torn final line — and continues appending after it, restoring
        the line counter and header flag.  Only path targets can resume.
        """
        sink = cls.__new__(cls)
        sink.path = Path(target)
        with sink.path.open("r+") as fh:
            fh.truncate(state["bytes"])
        sink._fh = sink.path.open("a")
        sink._owns = True
        sink._header_written = state["header"]
        sink.lines = state["lines"]
        sink.bytes = state["bytes"]
        return sink

    def checkpoint_state(self) -> dict:
        """Flush and return the offsets :meth:`resume` needs."""
        self._fh.flush()
        return {
            "bytes": self.bytes,
            "lines": self.lines,
            "header": self._header_written,
        }

    # ------------------------------------------------------------------
    def write_header(self, meta: Mapping | None = None) -> None:
        """Write the schema header (once; later calls are ignored)."""
        if self._header_written:
            return
        doc = {"t": "header", "schema": SCHEMA_VERSION}
        if meta:
            doc.update(meta)
        self._write(doc)
        self._header_written = True

    def write_trace(self, action: str, record: TraceRecord) -> None:
        """Write one event lifecycle transition."""
        self.write_header()
        self._write(
            {
                "t": "trace",
                "a": action,
                "ts": record.ts,
                "origin": record.origin,
                "seq": record.seq,
                "dst": record.dst,
                "kind": record.kind,
            }
        )

    def write_metric(self, sample: MetricSample) -> None:
        """Write one GVT-interval metric sample."""
        self.write_header()
        doc = {"t": "metric"}
        doc.update(sample.as_dict())
        self._write(doc)

    def write_fault(self, fault_dict: Mapping) -> None:
        """Write one scheduled fault event (a FaultEvent.to_dict())."""
        self.write_header()
        doc = {"t": "fault"}
        doc.update(fault_dict)
        self._write(doc)

    def write_adversary(self, event_dict: Mapping) -> None:
        """Write one adversary injection decision (InjectionEvent.to_dict())."""
        self.write_header()
        doc = {"t": "adversary"}
        doc.update(event_dict)
        self._write(doc)

    def write_health(self, event_dict: Mapping) -> None:
        """Write one watchdog trip (a HealthEvent.to_dict())."""
        self.write_header()
        doc = {"t": "health"}
        doc.update(event_dict)
        self._write(doc)

    def write_span(self, span: Span) -> None:
        """Write one engine-phase span (see repro.obs.spans)."""
        self.write_header()
        doc = {"t": "span"}
        doc.update(span.as_dict())
        self._write(doc)

    def write_stats(self, stats_dict: Mapping) -> None:
        """Write the final RunStats dict (call once, at run end)."""
        self.write_header()
        doc = {"t": "stats"}
        doc.update(stats_dict)
        self._write(doc)

    def _write(self, doc: dict) -> None:
        data = json.dumps(doc, **_COMPACT) + "\n"
        self._fh.write(data)
        self.lines += 1
        self.bytes += len(data)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush (and fsync + close, for path-opened sinks)."""
        self.write_header()  # even an empty recording is a valid file
        self._fh.flush()
        if self._owns:
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingTracer:
    """Tracer-compatible hook set that streams records to a sink.

    Drop-in for :class:`~repro.core.trace.Tracer` on the kernel side
    (``attach_tracer`` accepts either): same ``on_exec`` / ``on_undo`` /
    ``on_commit`` hooks, but each record goes straight to the JSONL sink
    and only the action counts stay in memory — a full-fidelity trace of
    an arbitrarily long run in O(1) space.  Queries live on the loader's
    :class:`RunRecording`, not here.
    """

    def __init__(self, sink: JsonlSink) -> None:
        self.sink = sink
        self.counts = {EXEC: 0, UNDO: 0, COMMIT: 0}

    def on_exec(self, event) -> None:
        """Record a forward execution."""
        self.counts[EXEC] += 1
        self.sink.write_trace(EXEC, TraceRecord.of(EXEC, event))

    def on_undo(self, event) -> None:
        """Record a rollback of a processed event."""
        self.counts[UNDO] += 1
        self.sink.write_trace(UNDO, TraceRecord.of(UNDO, event))

    def on_commit(self, event) -> None:
        """Record an event becoming irreversible (below GVT)."""
        self.counts[COMMIT] += 1
        self.sink.write_trace(COMMIT, TraceRecord.of(COMMIT, event))


class RunRecording:
    """One loaded recording: header, trace, metrics, final stats.

    Offers the same forensic queries as an in-memory
    :class:`~repro.core.trace.Tracer` — plus the metric time series —
    reconstructed entirely from the file.
    """

    def __init__(
        self,
        header: dict,
        records: list[TraceRecord],
        metrics: list[MetricSample],
        stats: dict | None,
        path: Path | None = None,
        faults: list[dict] | None = None,
        spans: list[Span] | None = None,
        adversary: list[dict] | None = None,
        health: list[dict] | None = None,
    ) -> None:
        self.header = header
        self.records = records
        self.metrics = metrics
        self.stats = stats
        self.path = path
        #: Scheduled fault events ({"step", "kind", "node", "direction"}),
        #: in plan order; empty for unfaulted runs and schema-1 files.
        self.faults = faults if faults is not None else []
        #: Scripted adversary injections ({"step", "node", "dest"}), in
        #: plan order; empty for Bernoulli runs and pre-schema-4 files.
        self.adversary = adversary if adversary is not None else []
        #: Engine-phase spans (see repro.obs.spans), in recording order;
        #: empty for runs without a SpanTracer and pre-schema-3 files.
        self.spans = spans if spans is not None else []
        #: Watchdog trips ({"detector", "action", "engine", "boundary",
        #: "position", "wall", ...}), in trip order; empty for healthy
        #: runs, unwatched runs and pre-schema-5 files.
        self.health = health if health is not None else []
        #: Count of unparseable trailing lines the loader tolerated (a
        #: crash can tear at most the final line; see JsonlSink).  0 for
        #: cleanly closed recordings.
        self.truncated_lines = 0
        self.counts = {EXEC: 0, UNDO: 0, COMMIT: 0}
        for r in records:
            self.counts[r.action] += 1

    # ------------------------------------------------------------------
    # Tracer-equivalent queries.
    # ------------------------------------------------------------------
    def select(self, action: str) -> list[TraceRecord]:
        """All trace records of one action, in recording order."""
        return [r for r in self.records if r.action == action]

    def committed_sequence(self) -> list[tuple]:
        """Committed events as comparable tuples, sorted by event key.

        The cross-process form of the report's determinism check: two
        recordings are equivalent iff these sequences are equal.  Raises
        :class:`ValueError` when the recording carries no trace lines
        (metrics-only files cannot support the check) or when the
        recorded stats say more events committed than the trace holds.
        """
        commits = self.select(COMMIT)
        if not commits and self.counts[EXEC] == 0:
            raise ValueError(
                f"recording {self.path or '<stream>'} has no trace records; "
                "re-record with --trace-out to enable sequence comparison"
            )
        if self.stats is not None and self.stats.get("committed", 0) > len(commits):
            raise ValueError(TRIMMED_COMMITS_MSG)
        return sorted((r.ts, r.origin, r.seq, r.dst, r.kind) for r in commits)

    def thrash_by_lp(self) -> dict[int, int]:
        """UNDO count per destination LP — who rolls back the most."""
        out: dict[int, int] = {}
        for r in self.records:
            if r.action == UNDO:
                out[r.dst] = out.get(r.dst, 0) + 1
        return out

    def thrash_by_kp(self) -> dict[int, int]:
        """Total events rolled back per KP, summed over metric samples."""
        out: dict[int, int] = {}
        for s in self.metrics:
            for kp_id, n in s.kp_rolled_back.items():
                out[kp_id] = out.get(kp_id, 0) + n
        return out

    def span_breakdown(self) -> dict[str, tuple[int, float, float]]:
        """``{phase: (count, seconds, share)}`` over the recorded spans.

        ``share`` is the phase's fraction of summed span time (phases
        nest, so they do not sum to wall time; see repro.obs.spans).
        """
        totals: dict[str, list] = {}
        for span in self.spans:
            tot = totals.setdefault(span.phase, [0, 0.0])
            tot[0] += 1
            tot[1] += span.dt
        grand = sum(t for _, t in totals.values())
        return {
            ph: (count, total, total / grand if grand else 0.0)
            for ph, (count, total) in sorted(totals.items())
        }

    def span_busy_by_pe(self) -> dict[int, float]:
        """Recorded ``exec`` span seconds per PE."""
        out: dict[int, float] = {}
        for span in self.spans:
            if span.phase == "exec" and span.pe >= 0:
                out[span.pe] = out.get(span.pe, 0.0) + span.dt
        return out

    def __len__(self) -> int:
        return len(self.records)


def _parse_lines(lines: Iterable[str], path: Path | None) -> RunRecording:
    header: dict = {}
    records: list[TraceRecord] = []
    metrics: list[MetricSample] = []
    faults: list[dict] = []
    spans: list[Span] = []
    adversary: list[dict] = []
    health: list[dict] = []
    stats: dict | None = None
    truncated: tuple[int, ValueError] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if truncated is not None:
            # An unparseable line followed by more content is corruption,
            # not a crash-torn tail: fail at the original line.
            raise truncated[1]
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            err = ValueError(
                f"{path or '<stream>'}:{lineno}: not valid JSON ({exc})"
            )
            if raw.endswith("\n"):
                # The sink appends each record and its newline in one
                # write, so a crash can only tear the final, unterminated
                # line.  A *complete* line of non-JSON is corruption.
                raise err
            truncated = (lineno, err)
            continue
        kind = doc.get("t")
        if not header and kind != "header":
            raise ValueError(
                f"{path or '<stream>'}:{lineno}: missing header line "
                "(recordings must start with a header)"
            )
        if kind == "header":
            schema = doc.get("schema")
            if schema not in SUPPORTED_SCHEMAS:
                raise ValueError(
                    f"{path or '<stream>'}: schema {schema!r} is not a "
                    f"supported version {SUPPORTED_SCHEMAS}"
                )
            header = {k: v for k, v in doc.items() if k != "t"}
        elif kind == "trace":
            records.append(
                TraceRecord(
                    action=doc["a"],
                    ts=doc["ts"],
                    origin=doc["origin"],
                    seq=doc["seq"],
                    dst=doc["dst"],
                    kind=doc["kind"],
                )
            )
        elif kind == "metric":
            metrics.append(MetricSample.from_dict(doc))
        elif kind == "fault":
            faults.append({k: v for k, v in doc.items() if k != "t"})
        elif kind == "span":
            spans.append(Span.from_dict(doc))
        elif kind == "adversary":
            adversary.append({k: v for k, v in doc.items() if k != "t"})
        elif kind == "health":
            health.append({k: v for k, v in doc.items() if k != "t"})
        elif kind == "stats":
            stats = {k: v for k, v in doc.items() if k != "t"}
        else:
            raise ValueError(
                f"{path or '<stream>'}:{lineno}: unknown line type {kind!r}"
            )
    if not header:
        raise ValueError(f"{path or '<stream>'}: missing header line")
    recording = RunRecording(
        header, records, metrics, stats, path, faults, spans, adversary, health
    )
    if truncated is not None:
        recording.truncated_lines = 1
    return recording


def load_recording(source: str | Path | IO[str]) -> RunRecording:
    """Load one JSONL recording from a path or open text stream."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open() as fh:
            return _parse_lines(fh, path)
    return _parse_lines(source, None)
