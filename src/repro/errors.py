"""Exception hierarchy for the repro package.

Every error raised deliberately by the simulator derives from
:class:`ReproError` so applications can catch simulator faults separately
from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro simulator."""


class ConfigurationError(ReproError):
    """An engine or model configuration value is invalid or inconsistent."""


class SchedulingError(ReproError):
    """An event was scheduled illegally (e.g. into the past, or after the

    simulation end barrier). In Time Warp terms this is the model violating
    causality *at send time*, which no rollback can repair.
    """


class RollbackError(ReproError):
    """The kernel failed to restore state during a rollback.

    This indicates a broken reverse handler in the model: forward and
    reverse computation are not inverses of each other.
    """


class TopologyError(ReproError):
    """A network topology query was invalid (bad coordinates, bad id)."""


class ModelError(ReproError):
    """A model handler violated a model-level invariant (e.g. a bufferless

    router received more packets in one time step than it has output links).
    """


class SnapshotError(ReproError):
    """A checkpoint snapshot could not be written, read, or applied.

    Raised for corrupted or truncated snapshot files (integrity-hash
    mismatch), unsupported format versions, and restore attempts against
    an engine whose configuration marker differs from the one recorded at
    capture time.
    """


class InvariantViolation(ReproError):
    """A --paranoid kernel invariant check failed at a GVT epoch.

    The message names the PE/KP/LP involved; a violation means kernel
    state is internally inconsistent and results can no longer be
    trusted.
    """


class HealthIntervention(ReproError):
    """The liveness watchdog escalated past in-run remediation.

    Raised out of ``engine.run()`` at a quiescent boundary when the
    degradation ladder reaches an action the engine cannot apply to
    itself — restore from the last good snapshot, or abort.  Carries
    the requested ``action`` and the triggering
    :class:`repro.health.HealthEvent`; the recovery runner
    (:func:`repro.health.run_with_recovery`) catches it and acts.
    """

    def __init__(self, action: str, event) -> None:
        super().__init__(f"watchdog requested {action!r}: {event}")
        self.action = action
        self.event = event


class HealthAbort(ReproError):
    """The degradation ladder is exhausted: the run was aborted.

    The message names the forensics bundle written for post-mortem
    analysis (see :mod:`repro.health.forensics`).
    """


class ResumeIntegrityError(ReproError):
    """A resumed sweep's input files no longer match the journaled hashes.

    Raised before any point runs when a scenario or fault-plan file
    referenced by the manifest hashes differently from (or has vanished
    since) the original launch.  The message names the offending file;
    resuming would silently compute a different experiment.
    """
