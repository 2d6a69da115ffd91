"""Conservative parallel simulation — YAWNS as a Time Warp window.

Time Warp lets PEs race ahead and repairs mistakes; *conservative*
synchronization never makes them: a PE only executes an event once no
earlier message can possibly arrive.  The price is **lookahead** — a model
guarantee that an event at time ``t`` never sends another PE anything
before ``t + L`` — and synchronization rounds.  The protocol is **YAWNS**:
barrier rounds in which all PEs agree on the lower bound on time stamp
LBTS = min(next unprocessed event) + L and execute everything below it.
This is what ROSS's conservative mode does.

YAWNS needs no loop of its own: Time Warp's barrier GVT, estimated every
round, *is* min(next unprocessed event), so a virtual-time window of L
stops every PE at LBTS.  :class:`ConservativeKernel` is a
:class:`~repro.core.optimistic.TimeWarpKernel` configured so — one KP per
PE, a batch cap no PE reaches, GVT every round, ``window = L`` — sharing
its round loop, hooks, snapshot codec, watchdog and ``--paranoid`` check.
It takes the same :class:`~repro.core.config.EngineConfig` and refuses,
by name, every Time Warp field set to a value YAWNS would ignore.
It commits the sequential oracle's results and rolls nothing back, so
``reverse`` handlers are never called; the test suite checks both.

Lookahead is declared by the model (``Model.lookahead``).  A lie does harm
only when a message lands below what its destination PE already executed:
Time Warp would call that a straggler and roll back.  A straggler in a
conservative run raises :class:`~repro.errors.SchedulingError` instead.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.core.config import EngineConfig
from repro.core.lp import Model
from repro.core.optimistic import TimeWarpKernel
from repro.core.result import RunResult
from repro.errors import ConfigurationError, SchedulingError

__all__ = ["ConservativeKernel", "refuse_transport_faults", "run_conservative"]

#: A conservative round's batch cap: no PE reaches it, so each PE drains
#: everything below LBTS in one batch.
UNBOUNDED_BATCH = 1 << 62

#: The Time Warp fields YAWNS fixes or cannot honour, at the values a
#: caller who leaves them alone passes (``n_kps`` is checked apart: its
#: default is one KP per PE, the only count a conservative run takes).
TIME_WARP_DEFAULTS = {
    f.name: f.default for f in fields(EngineConfig)
    if f.name in ("batch_size", "window", "gvt_interval", "adaptive", "procs")
}


def refuse_transport_faults(plan) -> None:
    """Refuse a fault plan the conservative kernel cannot honour.

    A transport fault holds a message past the round it was sent in, so
    it would land below a window already run.  PE stalls are fine: a
    stalled PE's pending events hold GVT, and so LBTS, back.
    """
    if plan is not None and plan.has_transport_faults:
        raise ConfigurationError(
            "conservative execution cannot take transport faults (drop, "
            "duplicate or delay): a held message would land below a window "
            "already run; run them on Time Warp (--engine opt)"
        )


class ConservativeKernel(TimeWarpKernel):
    """YAWNS: Time Warp's round loop at a window of the model's lookahead."""

    kind = "conservative"

    def __init__(self, model: Model, config: EngineConfig) -> None:
        lookahead = getattr(model, "lookahead", None)
        if lookahead is None or lookahead <= 0:
            raise ConfigurationError(
                "conservative execution needs positive lookahead: define "
                "model.lookahead"
            )
        ignored = [
            f"{name}={getattr(config, name)!r}"
            for name, default in TIME_WARP_DEFAULTS.items()
            if getattr(config, name) != default
        ]
        if config.n_kps != config.n_pes:
            ignored.append(f"n_kps={config.n_kps} (one KP per PE)")
        if ignored:
            raise ConfigurationError(
                "conservative execution takes no Time Warp setting; drop "
                + ", ".join(ignored)
            )
        self.lookahead = float(lookahead)
        super().__init__(model, replace(
            config, batch_size=UNBOUNDED_BATCH, window=self.lookahead,
        ))

    def attach_faults(self, driver) -> "ConservativeKernel":
        """PE stalls only; a plan with transport faults is refused."""
        refuse_transport_faults(driver.plan)
        return super().attach_faults(driver)

    def _straggler(self, pe, kp, ev) -> None:
        """Every straggler is a lookahead lie; fail instead of rolling back."""
        raise SchedulingError(
            f"LP {ev.key.origin} violated the declared lookahead "
            f"{self.lookahead}: its {ev.kind!r} at ts={ev.key.ts} reached "
            f"LP {ev.dst} on PE {pe.id}, which had already executed past it"
        )


def run_conservative(
    model: Model,
    config: EngineConfig,
    *,
    tracer=None,
    metrics=None,
    spans=None,
    faults=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Convenience wrapper: build a conservative kernel, attach telemetry, run."""
    return ConservativeKernel(model, config).attach_hooks(
        tracer=tracer, metrics=metrics, spans=spans, faults=faults,
        health=health, checkpointer=checkpointer,
    ).run()
