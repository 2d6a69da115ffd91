"""The executor ABI: the chassis shared by all three engines.

The sequential oracle and the Time Warp kernel (and the conservative
kernel, a Time Warp kernel at a window of the model's lookahead) share
a model API but historically each re-implemented the same plumbing:
LP-population build and validation, RNG binding, event-pool wiring, the
``attach_*`` telemetry surface, and snapshot capture/restore.  This module
collapses that duplication into one base class — :class:`Executor` — with
a small uniform interface every engine implements:

``schedule(ev)`` / ``deliver(ev)``
    Enqueue an event at its destination.  ``schedule`` is the bare
    enqueue; ``deliver`` carries the engine's full arrival semantics
    (for the optimistic engine, the straggler check and rollback).
``fossil(horizon)``
    Commit-and-free everything below ``horizon``.  The sequential
    engine commits as it executes, so it has nothing to collect and
    returns 0; the Time Warp kernel (conservative included) overrides
    this with real fossil collection.
``snapshot()`` / ``restore(payload)``
    Whole-engine state capture for checkpointing, delegating to
    :mod:`repro.ckpt.state` (imported lazily — the ckpt layer imports
    the engines).
``run()``
    Execute to the end barrier and return a
    :class:`~repro.core.result.RunResult`.  Every engine's ``run`` holds
    :meth:`Executor._collector_paused` around its event loop (process
    mode around its fork, wait and merge).

The base class also owns the **population build**: every engine builds
with :meth:`~repro.core.lp.Model.build`, so there is one population per
model whatever runs it — and the **dispatch**: every engine that runs
an event asks the model once per run for its per-kind handler table
over the built LPs (:meth:`Executor._handler_table`,
:meth:`~repro.core.lp.Model.handlers`) and runs each event through its
kind's handler, or ``lp.forward`` for a kind the table does not list.
The sequential engine also runs a model's band program past its start,
when the model offers one.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.core.event import Event, EventPool
from repro.core.lp import LogicalProcess, Model
from repro.errors import ConfigurationError
from repro.rng.streams import ReversibleStream, derive_seed

__all__ = ["Executor"]


class Executor:
    """Common chassis for the three engines (see module docstring).

    Subclasses call :meth:`_init_population`, :meth:`_init_pool` and
    :meth:`_bind_lps` from their constructors, then override the pieces
    of the ABI whose defaults don't apply (``deliver`` for rollback
    semantics, ``fossil`` for Time Warp, ``attach_faults`` where a fault
    driver has something to act on).
    """

    #: Engine kind tag ("sequential" / "conservative" / "optimistic").
    kind = "abstract"

    #: Liveness watchdog (:class:`repro.health.Watchdog`), or None.
    health = None

    #: The event whose handler is running (its ``dst`` is the LP that
    #: sends), or None between events.
    _current_event = None

    model: Model
    lps: list[LogicalProcess]
    pool: EventPool

    # ------------------------------------------------------------------
    # Shared construction helpers.
    # ------------------------------------------------------------------
    def _init_population(self, model: Model) -> list:
        """Build and validate the LP population."""
        self.model = model
        lps = model.build()
        if not lps:
            raise ConfigurationError("model.build() returned no LPs")
        for i, lp in enumerate(lps):
            if lp.id != i:
                raise ConfigurationError(
                    f"LP ids must be dense 0..n-1 in build() order; "
                    f"position {i} has id {lp.id}"
                )
        self.lps = lps
        return lps

    def _init_pool(self):
        """Create the event pool and return its allocator."""
        self.pool = EventPool()
        return self.pool.acquire

    def _bind_lps(self, seed: int, alloc) -> None:
        """Give every LP its derived RNG stream, emit callback and allocator."""
        emit = self._emit
        for lp in self.lps:
            lp.bind(ReversibleStream(derive_seed(seed, lp.id), lp.id), emit)
            lp._alloc = alloc

    def _emit(self, src_lp: LogicalProcess, ev: Event) -> None:
        """Kernel side of ``LogicalProcess.send`` (engine-specific)."""
        raise NotImplementedError

    def _handler_table(self, send=None) -> dict:
        """The model's handler table over this engine's LPs and ``send``
        (:meth:`~repro.core.lp.Model.handlers`; by default
        :meth:`_executing_send`); ``{}`` when it offers none.  Built once
        per ``run``, after a checkpoint restore and after the LPs' sends
        are bound: Time Warp at the top, the sequential engine at its
        per-event loop's first event (a band program that runs every
        event needs none)."""
        if send is None:
            send = self._executing_send()
        return self.model.handlers(self.lps, send) or {}

    def _executing_send(self):
        """The send for a handler table where nothing is fused: the
        executing LP's own ``send``, the LP named by ``_current_event``."""
        lps = self.lps

        def send(ts, dst, kind, data=None):
            return lps[self._current_event.dst].send(ts, dst, kind, data)

        return send

    @staticmethod
    @contextmanager
    def _collector_paused():
        """Hold CPython's cyclic collector off while an engine runs, and
        hide what the run leaves alive from every later pass.

        No :class:`~repro.core.event.Event` is ever part of a reference
        cycle, so the pool and the reference counter free every one and
        the generation scans a running engine triggers find nothing.
        Entered by each ``run`` once the fast paths are compiled, and by
        process mode around its fork, wait and merge (workers inherit a
        frozen heap and a disabled collector).  On the way in, the heap
        is unfrozen and collected once — that frees the engines of earlier
        runs (an engine *is* cyclic: its closures hold it), which would
        otherwise pile up in a process that only allocates while paused —
        and then frozen.  On every way out, everything alive is frozen
        again before the collector is re-enabled, so neither a later
        generation pass nor the interpreter's exit collection walks the
        finished run.  The cost: what a run leaves alive is exempt from
        cyclic collection until the next ``run`` starts or the caller
        calls ``gc.unfreeze()``.  A collector the caller had disabled is
        left alone, freeze and all.  (docs/KERNEL.md, "Who frees an
        Event".)
        """
        if not gc.isenabled():
            yield
            return
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            yield
        finally:
            gc.freeze()
            gc.enable()

    # ------------------------------------------------------------------
    # Telemetry attachment surface (identical across engines).
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer):
        """Attach a :class:`repro.core.trace.Tracer`; returns self."""
        self.tracer = tracer
        return self

    def attach_metrics(self, recorder):
        """Attach a :class:`repro.obs.metrics.MetricsRecorder`; returns self."""
        self.metrics = recorder
        return self

    def attach_spans(self, tracer):
        """Attach a :class:`repro.obs.spans.SpanTracer`; returns self.

        Engines consult it at phase boundaries only (per PE batch, per
        rollback episode, per GVT round ...), never per event, so — like
        metrics and unlike a Tracer — attaching one keeps the optimistic
        kernel's fused fast paths installed and costs nothing detached.
        """
        self.spans = tracer
        return self

    def attach_faults(self, driver):
        """Accept a :class:`repro.faults.EngineFaults` driver; returns self.

        The default is a documented no-op for engines the driver has
        nothing to act on (the sequential engine: one heap, no transport,
        no PEs — model faults reach it through the model itself).  The
        parallel engines override this to install the driver.
        """
        return self

    def attach_checkpointer(self, ckpt):
        """Attach a :class:`repro.ckpt.Checkpointer`; returns self.

        If the checkpointer holds a loaded snapshot (``load_latest``),
        attaching grafts the captured state onto this engine — attach it
        last, after tracer/metrics/faults, so the graft sees the final
        object graph.
        """
        self.ckpt = ckpt
        ckpt.bind(self)
        return self

    def attach_health(self, monitor):
        """Attach a :class:`repro.health.Watchdog`; returns self.

        Engines consult it at the same quiescent boundaries as the
        checkpointer (GVT rounds / sequential event intervals or step
        ends), never per event, so a detached watchdog costs
        nothing and an attached one keeps the fused fast paths
        installed.  A trip the engine's throttle cannot absorb raises
        :class:`~repro.errors.HealthIntervention` (``abort``) out of
        :meth:`run`.
        """
        self.health = monitor
        monitor.bind(self)
        return self

    def attach_hooks(self, *, tracer=None, metrics=None, spans=None,
                     faults=None, health=None, checkpointer=None):
        """Attach every hook given, in the one order they need; returns self.

        Tracer, metrics, spans, faults, health, then the checkpointer: it
        comes last so a restore grafts onto the final object graph.
        """
        for attach, hook in (
            (self.attach_tracer, tracer),
            (self.attach_metrics, metrics),
            (self.attach_spans, spans),
            (self.attach_faults, faults),
            (self.attach_health, health),
            (self.attach_checkpointer, checkpointer),
        ):
            if hook is not None:
                attach(hook)
        return self

    # ------------------------------------------------------------------
    # The ABI proper.
    # ------------------------------------------------------------------
    def schedule(self, ev: Event) -> None:
        """Bare enqueue of ``ev`` at its destination's pending structure."""
        raise NotImplementedError

    def deliver(self, ev: Event) -> None:
        """Full arrival semantics for ``ev`` (default: same as schedule).

        The Time Warp kernel overrides this with the straggler check and
        rollback path (the conservative kernel's straggler raises); for
        sequential execution an arrival is just an enqueue.
        """
        self.schedule(ev)

    def fossil(self, horizon: float) -> int:
        """Commit-and-free everything below ``horizon``; returns the count.

        Engines that commit events as they execute retire them on the
        spot, so there is never anything to collect.
        """
        return 0

    def snapshot(self) -> dict:
        """Capture a checkpoint payload of this engine's full state."""
        from repro.ckpt.state import capture_state

        return capture_state(self, None)

    def restore(self, payload: dict) -> None:
        """Graft a payload produced by :meth:`snapshot` onto this engine."""
        from repro.ckpt.state import restore_state

        restore_state(self, payload)

    def run(self):
        """Execute to the end barrier and return a RunResult."""
        raise NotImplementedError
