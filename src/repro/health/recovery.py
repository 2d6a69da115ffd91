"""The recovery runner: act on watchdog interventions outside ``run()``.

The watchdog (:mod:`repro.health.watchdog`) can tighten the optimistic
throttle from *inside* a run, but the heavier rungs of the degradation
ladder — restore from the last good snapshot, abort — need a fresh
engine, which only the caller can build.  :func:`run_with_recovery` is
that caller: a loop that builds an engine, runs it, and catches
:class:`~repro.errors.HealthIntervention` to walk the remaining rungs:

* ``restore`` — rebuild the engine, graft the last good snapshot
  through the checkpointer (``ckpt.load_latest()`` +
  ``attach_checkpointer``), and re-run, with bounded retries and
  exponential backoff (:class:`RecoveryPolicy`, generalizing the
  experiment supervisor's per-point retry policy).
* ``abort`` — write a forensics bundle
  (:func:`repro.health.write_forensics_bundle`) and raise
  :class:`~repro.errors.HealthAbort`.

Every action is journaled in ``RecoveryResult.actions`` (and through the
watchdog's sink as ``health`` lines), so supervisors and the chaos
harness can replay exactly what the ladder did.

The runner never swaps the engine: a run that cannot be restored aborts
rather than being recomputed on another engine, so whatever it returns
was produced by the engine the caller asked for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, HealthAbort, HealthIntervention

__all__ = ["RecoveryPolicy", "RecoveryResult", "run_with_recovery"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-retry / backoff policy for sick runs.

    This generalizes the knobs the experiment supervisor has always had
    (``max_retries`` / ``backoff_base``) into a reusable
    object the watchdog ladder, the supervisor, and the chaos harness
    all consult.
    """

    #: Snapshot-restore attempts before the restore rung is exhausted.
    max_restores: int = 2
    #: First restore waits this long; each further restore doubles it.
    backoff_base: float = 0.5
    #: Where the abort rung writes its forensics bundle (None = skip).
    forensics_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.max_restores < 0:
            raise ConfigurationError(
                f"max_restores must be >= 0, got {self.max_restores}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before restore ``attempt`` (1-based): exponential."""
        return self.backoff_base * 2 ** (attempt - 1)


@dataclass
class RecoveryResult:
    """What :func:`run_with_recovery` did and what the run produced."""

    #: The final (successful) engine's ``run()`` result.
    result: object
    #: The engine that completed the run (inspect its tracer/stats).
    engine: object
    #: Action journal: one dict per recovery action, in order
    #: (``{"action", "detector", "boundary", ...}``).
    actions: list[dict] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True when at least one ladder action beyond throttle ran."""
        return bool(self.actions)


def run_with_recovery(
    build,
    watchdog,
    *,
    policy: RecoveryPolicy | None = None,
    ckpt=None,
    sleep=time.sleep,
    on_action=None,
):
    """Run ``build()`` under ``watchdog``, recovering per ``policy``.

    Parameters
    ----------
    build:
        ``build() -> engine``: construct a fresh, fully configured engine
        over the workload, of the same kind every call.  Called once per
        attempt; the runner attaches the watchdog (and checkpointer, when
        one is given) itself.
    watchdog:
        The :class:`~repro.health.Watchdog` to attach.  Its ladder rung
        and event log persist across attempts, so repeated sickness
        escalates instead of looping.
    policy:
        :class:`RecoveryPolicy`; ``None`` uses the defaults.
    ckpt:
        Optional :class:`~repro.ckpt.Checkpointer`.  Required for the
        restore rung to do anything (without one, restore escalates to
        abort immediately); also re-attached on every attempt so
        snapshots keep flowing after a recovery.
    sleep:
        Injectable backoff sleeper (tests pass a recorder).
    on_action:
        Optional callback ``on_action(record: dict)`` fired for every
        recovery action as it happens (the chaos harness journals these).

    Returns
    -------
    RecoveryResult

    Raises
    ------
    HealthAbort
        When the ladder is exhausted.  The forensics bundle path (if
        one was written) is in the message.
    """
    if policy is None:
        policy = RecoveryPolicy()
    actions: list[dict] = []
    restores = 0
    restore_pending = False

    def _record(action: str, event, **extra) -> dict:
        rec = {
            "action": action,
            "detector": event.detector,
            "boundary": event.boundary,
            "position": event.position,
            **extra,
        }
        actions.append(rec)
        if on_action is not None:
            on_action(rec)
        return rec

    while True:
        engine = build()
        if ckpt is not None:
            if restore_pending:
                ckpt.load_latest()
                restore_pending = False
            engine.attach_checkpointer(ckpt)
        engine.attach_health(watchdog)
        try:
            result = engine.run()
            return RecoveryResult(result=result, engine=engine, actions=actions)
        except HealthIntervention as exc:
            action, event = exc.action, exc.event
            if action == "restore":
                can_restore = (
                    ckpt is not None
                    and ckpt.last_path is not None
                    and restores < policy.max_restores
                )
                if can_restore:
                    restores += 1
                    delay = policy.backoff(restores)
                    _record("restore", event, attempt=restores,
                            backoff=delay, snapshot=str(ckpt.last_path))
                    if delay:
                        sleep(delay)
                    restore_pending = True
                    continue
                # Restore rung exhausted (or impossible): escalate.
                watchdog.rung = min(
                    watchdog.rung + 1, len(watchdog.cfg.ladder) - 1
                )
            # Abort: restores are exhausted, or the ladder said so.
            bundle = None
            if policy.forensics_dir is not None:
                from repro.health.forensics import write_forensics_bundle

                bundle = write_forensics_bundle(
                    policy.forensics_dir,
                    event=event,
                    watchdog=watchdog,
                    ckpt=ckpt,
                    actions=actions,
                )
            _record("abort", event,
                    bundle=str(bundle) if bundle is not None else None)
            where = f" (forensics: {bundle})" if bundle is not None else ""
            raise HealthAbort(
                f"degradation ladder exhausted after "
                f"{event.detector} on {event.engine} engine{where}"
            ) from exc
