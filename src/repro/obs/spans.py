"""Span tracing: where the engine's wall time actually goes, per phase.

PR 2's metrics answer *what* the kernel did per GVT interval (counts);
spans answer *where the time went*: one :class:`Span` per engine phase
occurrence — an optimism batch, a rollback episode, an anti-message
flush, a GVT round, a fossil sweep, a snapshot, a transport drain — with
PE/KP/LP attribution and real ``perf_counter`` timings.  This is the
profiling layer the multicore and 65k-LP scale work reports through:
"PE 3 spends 40% of its wall time rolling back" is a span query, not a
counter query.

Design rules (the same contract as :mod:`repro.obs.metrics`):

* **Zero overhead when detached.**  Engines consult the tracer via
  ``if spans is not None`` at *phase* boundaries only — per PE batch,
  per rollback episode, per GVT round — never per event, and the
  optimistic kernel's fused send and batch closures stay installed
  with a span tracer attached (asserted in ``tests/test_obs_spans.py``).
* **Bounded memory.**  Recent spans live in a fixed-capacity ring
  buffer; exact per-phase totals (count and duration) survive ring
  wrap-around, so the phase breakdown is always exact no matter how long
  the run.  With a ``sink``, every span is also written through to the
  JSONL recording (schema 3 ``span`` lines) in O(1) memory.
* **Honest nondeterminism.**  Span timings are wall-clock and therefore
  *not* reproducible across runs — unlike every other line type in a
  recording.  Determinism tooling (``repro.obs diff``, committed
  sequences, critpath) never reads spans; dashboards and profiles do.

Spans may nest: a secondary rollback triggered while the cancel worklist
drains records both the inner ``rollback`` span and the enclosing
``antimsg`` span, so phase durations are not disjoint and do not sum to
wall time.  ``exec`` spans cover the batch loop, which *includes* any
rollbacks its sends trigger mid-batch.
"""

from __future__ import annotations

import time
from typing import NamedTuple

__all__ = ["PHASES", "Span", "SpanTracer"]

#: The engine phases a span can belong to, in reporting order.
#:
#: * ``exec``      — one optimism batch (optimistic), one round's window
#:   execution (conservative), or one sampling interval (sequential).
#: * ``rollback``  — one KP rollback episode (straggler, anti-message or
#:   secondary cancellation).
#: * ``antimsg``   — one anti-message resolution pass: a drain of the
#:   cancel worklist.
#: * ``gvt``       — one GVT estimate.
#: * ``fossil``    — one fossil-collection sweep.
#: * ``snapshot``  — one checkpoint snapshot actually written.
#: * ``transport`` — one fault-wrapped transport flush that released held
#:   messages.
PHASES = (
    "exec",
    "rollback",
    "antimsg",
    "gvt",
    "fossil",
    "snapshot",
    "transport",
)


class Span(NamedTuple):
    """One timed phase occurrence.

    ``t0`` is seconds since the tracer's epoch (its construction time),
    ``dt`` the duration in seconds.  ``pe``/``kp``/``lp`` attribute the
    span to a processing element / kernel process / logical process
    where that makes sense and are ``-1`` otherwise.  ``n`` counts the
    units the phase handled (events executed, events undone, messages
    delivered, ...; 0 when the phase has no natural unit).

    A ``NamedTuple`` rather than a dataclass: :meth:`SpanTracer.record`
    sits on engine phase boundaries, and tuple construction is what
    keeps the attached-tracer overhead inside its smoke-gate budget.
    """

    phase: str
    t0: float
    dt: float
    pe: int = -1
    kp: int = -1
    lp: int = -1
    n: int = 0

    def as_dict(self) -> dict:
        """Flat JSON-ready dict (the ``span`` line payload)."""
        return {
            "ph": self.phase,
            "t0": self.t0,
            "dt": self.dt,
            "pe": self.pe,
            "kp": self.kp,
            "lp": self.lp,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, d) -> "Span":
        """Inverse of :meth:`as_dict` (the JSONL loader's entry point)."""
        return cls(
            phase=d["ph"],
            t0=float(d["t0"]),
            dt=float(d["dt"]),
            pe=int(d.get("pe", -1)),
            kp=int(d.get("kp", -1)),
            lp=int(d.get("lp", -1)),
            n=int(d.get("n", 0)),
        )


class SpanTracer:
    """Ring-buffered span collector, attachable to any of the engines.

    Parameters
    ----------
    capacity:
        Ring-buffer size: the most recent ``capacity`` spans stay in
        memory.  Per-phase totals are exact regardless.
    sink:
        Optional :class:`~repro.obs.recorder.JsonlSink`; every span is
        written through as recorded (schema 3 ``span`` lines).
    interval:
        Sampling period, in events, for the sequential engine (which
        has no batches or GVT rounds to delimit ``exec`` phases).
    clock:
        Time source; engines call :attr:`clock` directly to bracket a
        phase and pass both readings to :meth:`record`.  Injectable for
        tests.
    """

    def __init__(
        self,
        capacity: int = 4096,
        sink=None,
        *,
        interval: int = 1024,
        clock=time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be positive, got {capacity}")
        if interval < 1:
            raise ValueError(f"interval must be positive, got {interval}")
        self.capacity = capacity
        self.sink = sink
        self.interval = interval
        self.clock = clock
        self.epoch = clock()
        self.n_spans = 0
        #: Spans evicted from the ring so far (0 until it wraps).
        self.dropped = 0
        #: Exact per-phase ``[count, total_seconds]``, whole-run.
        self.totals: dict[str, list] = {ph: [0, 0.0] for ph in PHASES}
        self._ring: list[Span] = []
        self._head = 0

    # ------------------------------------------------------------------
    # Kernel-facing hook.
    # ------------------------------------------------------------------
    def record(
        self,
        phase: str,
        t0: float,
        t1: float,
        pe: int = -1,
        kp: int = -1,
        lp: int = -1,
        n: int = 0,
    ) -> None:
        """Record one phase occurrence bracketed by two clock readings."""
        dt = t1 - t0
        span = Span(phase, t0 - self.epoch, dt, pe, kp, lp, n)
        tot = self.totals[phase]
        tot[0] += 1
        tot[1] += dt
        self.n_spans += 1
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            head = self._head
            ring[head] = span
            head += 1
            self._head = 0 if head == self.capacity else head
            self.dropped += 1
        if self.sink is not None:
            self.sink.write_span(span)

    def ingest(self, span: Span) -> None:
        """Adopt a span recorded by *another* tracer, as-is.

        The multiprocess runtime ships worker spans to the parent through
        this: ``span.t0`` stays relative to the worker's own epoch (each
        process clock starts at its own construction), so cross-process
        ``t0`` values are comparable only per process — phase totals and
        breakdowns remain exact.
        """
        tot = self.totals[span.phase]
        tot[0] += 1
        tot[1] += span.dt
        self.n_spans += 1
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            head = self._head
            ring[head] = span
            head += 1
            self._head = 0 if head == self.capacity else head
            self.dropped += 1
        if self.sink is not None:
            self.sink.write_span(span)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """The retained spans, oldest first."""
        ring = self._ring
        head = self._head
        return ring[head:] + ring[:head]

    def phase_breakdown(self) -> dict[str, tuple[int, float, float]]:
        """Exact ``{phase: (count, seconds, share)}`` over the whole run.

        ``share`` is the phase's fraction of the summed phase time (not
        of wall time — spans nest; see the module docstring).  Phases
        that never occurred are omitted.
        """
        grand = sum(t for _, t in self.totals.values())
        return {
            ph: (count, total, total / grand if grand else 0.0)
            for ph, (count, total) in self.totals.items()
            if count
        }

    def busy_by_pe(self) -> dict[int, float]:
        """Retained-window ``exec`` seconds per PE (ring window only)."""
        out: dict[int, float] = {}
        for span in self._ring:
            if span.phase == "exec" and span.pe >= 0:
                out[span.pe] = out.get(span.pe, 0.0) + span.dt
        return out

    def __len__(self) -> int:
        return len(self._ring)
