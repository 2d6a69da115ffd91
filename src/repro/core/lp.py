"""Logical processes — the simulated components.

"The primary component in a ROSS simulation application is the Logical
Process (LP).  A simulation is comprised of a collection of LPs, each
simulating a separate component of the system." (§3.1.1)

A model subclasses :class:`LogicalProcess` and implements:

``on_init``
    Schedule the bootstrap events (ROSS models do this in their startup
    function).  Called once before the run; bootstrap sends are never
    rolled back.
``forward(event)``
    The event handler — the analog of ``Router_EventHandler`` switching on
    the event kind.  It mutates ``self.state``, may call :meth:`send`, may
    draw from ``self.rng``, and stashes whatever its reverse needs in
    ``event.saved``.  A model may instead hand the engines a per-kind
    handler table (:meth:`Model.handlers`); its LPs then need no
    ``forward`` for the kinds the table lists.
``reverse(event)``
    The reverse-computation handler: restore ``self.state`` from
    ``event.saved``.  The kernel automatically un-sends the handler's
    messages, reverses its RNG draws, and restores the send-sequence
    counter — models only undo their *own* state writes (an improvement
    over ROSS, where forgetting a ``tw_rand_reverse_unif`` corrupts runs).
``commit(event)`` (optional)
    Called when the event falls below GVT and can never roll back.
``snapshot_state`` / ``restore_state`` (optional)
    Override for a cheap copy when running under the state-saving rollback
    strategy; the default deep-copies ``self.state``.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.core.event import Event
from repro.errors import SchedulingError
from repro.vt.time import EventKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rng.streams import ReversibleStream

__all__ = ["LogicalProcess", "Model"]

#: ``EventKey(...)`` via ``tuple.__new__`` directly — what the generated
#: namedtuple ``__new__`` does, minus one Python-level call per send.
_tuple_new = tuple.__new__

#: Exact types that cannot alias mutable state: a container holding only
#: these is fully copied by a shallow copy (see ``snapshot_state``).
#: ``bool`` is covered by ``int`` only via subclassing, and the checks
#: below use exact types, so it is listed explicitly.
_SCALAR_TYPES = frozenset(
    {int, float, complex, bool, str, bytes, type(None)}
)


class LogicalProcess:
    """Base class for all simulated components.

    The kernel (sequential or optimistic) *binds* the LP before the run,
    giving it its RNG stream and a send callback.  Model code must go
    through :meth:`send` so the kernel can journal the event for
    cancellation on rollback.
    """

    __slots__ = (
        "id",
        "rng",
        "send_seq",
        "state",
        "kp",
        "send",
        "_emit",
        "_alloc",
        "_now",
    )

    def __init__(self, lp_id: int) -> None:
        self.id = lp_id
        self.rng: "ReversibleStream" = None  # type: ignore[assignment]
        #: Monotone send counter; part of rolled-back state.
        self.send_seq = 0
        #: Model state (models may also use plain attributes, but only
        #: ``state`` participates in default snapshots).
        self.state: Any = None
        #: Kernel process this LP belongs to (optimistic engine only).
        self.kp: Any = None
        #: The send entry point model code calls (``self.send(...)``).  It
        #: is instance data, not a method, so an engine can swap in a fused
        #: fast path per LP; the default is the generic kernel-agnostic
        #: implementation below.
        self.send: Any = self._kernel_send
        # Kernel wiring (set by bind): emit callback and current-time getter.
        self._emit: Any = None
        #: Event allocator; kernels with an event pool rebind this to the
        #: pool's ``acquire`` (same signature as the Event constructor).
        self._alloc: Any = Event
        self._now: float = 0.0

    # ------------------------------------------------------------------
    # Kernel-facing wiring.
    # ------------------------------------------------------------------
    def bind(self, rng: "ReversibleStream", emit: Any) -> None:
        """Attach the RNG stream and the kernel's send callback."""
        self.rng = rng
        self._emit = emit

    # ------------------------------------------------------------------
    # Model-facing API.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Receive timestamp of the event currently being processed."""
        return self._now

    def _kernel_send(
        self,
        ts: float,
        dst: int,
        kind: str,
        data: Any = None,
    ) -> Event:
        """Schedule an event for LP ``dst`` at virtual time ``ts``.

        This is the default implementation behind ``self.send``.  Engines
        may replace ``lp.send`` with a fused equivalent (the Time Warp
        kernel compiles one per LP); any replacement must preserve this
        exact observable behaviour, including the error below.

        During event processing ``ts`` must be strictly greater than
        :attr:`now`; zero-delay sends would break the total event order
        that makes parallel runs repeatable, so they are rejected at send
        time (a :class:`~repro.errors.SchedulingError` no rollback could
        repair).
        """
        if ts <= self._now:
            raise SchedulingError(
                f"LP {self.id} tried to send {kind!r} at ts={ts} while "
                f"processing ts={self._now}; sends must move strictly forward"
            )
        seq = self.send_seq
        self.send_seq = seq + 1
        ev = self._alloc(_tuple_new(EventKey, (ts, self.id, seq)), dst, kind, data)
        self._emit(self, ev)
        return ev

    # ------------------------------------------------------------------
    # Model interface (override in subclasses).
    # ------------------------------------------------------------------
    def on_init(self) -> None:
        """Schedule bootstrap events.  Default: none."""

    def forward(self, event: Event) -> None:
        """Process an event (required)."""
        raise NotImplementedError

    def reverse(self, event: Event) -> None:
        """Undo a processed event's state writes (required for optimistic

        runs under the reverse-computation strategy).
        """
        raise NotImplementedError

    def commit(self, event: Event) -> None:
        """Hook called when ``event`` becomes irreversible.  Default: none."""

    # ------------------------------------------------------------------
    # State-saving strategy hooks.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        """Return a full copy of the model state (state-saving rollback).

        Flat containers of scalars — the shape of most model state (PHOLD's
        counter list, per-LP tallies) — are snapshotted with a shallow
        copy: a scalar cannot alias mutable state, so copying the
        container alone is a *full* copy.  Anything nested or of a
        non-exact container type falls back to :func:`copy.deepcopy`,
        preserving the documented contract.  The shapes are checked per
        call because handlers may rebind ``self.state`` to a different
        shape mid-run.
        """
        state = self.state
        tstate = type(state)
        if tstate in _SCALAR_TYPES:
            # Immutable: no copy needed at all.
            return state
        if tstate is list:
            for v in state:
                if type(v) not in _SCALAR_TYPES:
                    return copy.deepcopy(state)
            return state.copy()
        if tstate is dict:
            for v in state.values():
                if type(v) not in _SCALAR_TYPES:
                    return copy.deepcopy(state)
            return state.copy()
        if tstate is tuple:
            for v in state:
                if type(v) not in _SCALAR_TYPES:
                    return copy.deepcopy(state)
            # A tuple of scalars is deeply immutable — share it.
            return state
        return copy.deepcopy(state)

    def restore_state(self, snapshot: Any) -> None:
        """Restore a copy produced by :meth:`snapshot_state`."""
        self.state = snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.id})"


class Model:
    """A complete simulation model: an LP population plus stats collection.

    Subclasses implement :meth:`build` to create the LPs (the ROSS startup
    function) and :meth:`collect_stats` as the "statistics collection
    function ... executed once for each LP when the simulation finishes"
    (§3.1.5) — here expressed as one pass over the LP list returning a flat
    dict, which the determinism tests compare across engines.
    """

    def build(self) -> list[LogicalProcess]:
        """Create and return the LP population (ids must be 0..n-1)."""
        raise NotImplementedError

    def handlers(self, lps: list[LogicalProcess], send_by_lp: list):
        """Optional per-kind handler table over the population ``lps``.

        ``lps`` is what :meth:`build` returned to the asking engine and
        ``send_by_lp[i]`` is ``lps[i].send`` as that engine bound it.  A
        model may return ``{kind: handler(ev, dst, rng)}``: ``handler``
        executes an event of that kind at LP ``dst`` (``rng`` is
        ``lps[dst].rng``), sending through ``send_by_lp[dst]``, with the
        run-constant state it reads hoisted into closure cells (see
        :mod:`repro.hotpotato.handlers`).  Every engine asks once per
        run and dispatches each event to its kind's handler, or to
        ``lp.forward`` for a kind the table does not list; the per-event
        bookkeeping (journal, RNG count, charges, tracer) is the
        engine's.  ``None``, the default, leaves every kind to
        ``lp.forward``.
        """
        return None

    #: Why :meth:`band_program` offered nothing although the model has a
    #: program ("" otherwise); models set it as they refuse.
    band_decline_reason = ""

    def band_program(self):
        """Optional step-synchronous program for the sequential engine.

        A model whose events fall into virtual-time bands that only send
        into later bands may return ``(start_ts, program)``: the
        sequential engine runs its per-event loop up to ``start_ts`` and
        then exhausts ``program(engine, processed, step, end)``, a
        generator that executes the run from integer step ``step`` to
        ``end`` a band at a time without building events, yields
        ``(now, processed, pending)`` after each band, records executed
        events on ``engine.tracer`` if one is attached, and leaves the
        engine (LP state, ``engine.pending``, ``engine.sends``) as the
        per-event loop would have (see
        :func:`repro.hotpotato.band.run_bands`); a hooked run enters it
        once per step.  Return ``None`` — the
        default — to offer nothing; a model that has a program but cannot
        offer it for this configuration says why in
        :attr:`band_decline_reason`, which lands in
        :class:`~repro.core.stats.RunStats`.
        """
        return None

    def collect_stats(self, lps: list[LogicalProcess]) -> dict[str, Any]:
        """Aggregate model statistics over the final LP states."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint hooks (see repro.ckpt).
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Any:
        """Return picklable *model-level* mutable state, or ``None``.

        Per-LP state travels through ``LogicalProcess.snapshot_state``;
        this hook covers anything the model object itself accumulates
        during a run (e.g. the hot-potato model's commit-time delivery
        log).  The default — no such state — returns ``None``.
        """
        return None

    def restore_checkpoint(self, state: Any) -> None:
        """Restore what :meth:`checkpoint_state` returned (in place)."""
        if state is not None:
            raise NotImplementedError(
                f"{type(self).__name__} captured model state but does not "
                "implement restore_checkpoint"
            )

    # ------------------------------------------------------------------
    # Multiprocess hooks (see repro.mp).  Process-mode execution forks
    # one worker per PE group; events that cross workers travel
    # pickle-free over shared-memory rings, and final results come back
    # through these hooks.
    # ------------------------------------------------------------------
    def mp_event_schema(self) -> dict | None:
        """Declare the wire layout of every event kind, or ``None``.

        A mapping ``{kind: ((field, struct_char), ...)}`` over the
        event's ``data`` — a dict read by field name, or a tuple in
        exactly this field order — used by
        :class:`repro.mp.codec.EventCodec` to struct-encode events
        crossing a process boundary.  ``None``
        (the default) means the model cannot run in process mode — the
        runtime refuses up front rather than silently pickling.
        """
        return None

    def mp_export_lp(self, lp: LogicalProcess) -> Any:
        """Picklable end-of-run state of one *owned* LP (worker side)."""
        raise NotImplementedError(
            f"{type(self).__name__} declares an mp event schema but no "
            "mp_export_lp"
        )

    def mp_import_lp(self, lp: LogicalProcess, blob: Any) -> None:
        """Install a worker's exported LP state into the parent's LP."""
        raise NotImplementedError(
            f"{type(self).__name__} declares an mp event schema but no "
            "mp_import_lp"
        )

    def mp_export_shard(self) -> Any:
        """Picklable model-level state of one worker, or ``None``.

        The per-worker analogue of :meth:`checkpoint_state` (e.g. the
        hot-potato delivery-log slice this worker committed).
        """
        return None

    def mp_merge_shards(self, shards: list) -> None:
        """Fold every worker's :meth:`mp_export_shard` into the parent."""
        for shard in shards:
            if shard is not None:
                raise NotImplementedError(
                    f"{type(self).__name__} exported a model shard but "
                    "does not implement mp_merge_shards"
                )
