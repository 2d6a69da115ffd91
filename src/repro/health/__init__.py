"""Self-healing runtime: liveness watchdog, degradation ladder, recovery.

The package has three layers:

* :mod:`repro.health.watchdog` — the in-run monitor.  Attach a
  :class:`Watchdog` to any engine via ``engine.attach_health(wd)``; its
  detectors (GVT stall, livelock, rollback thrash, memory growth) run at
  quiescent boundaries only, so the fused fast paths stay installed.
* :mod:`repro.health.recovery` — the out-of-run actor.
  :func:`run_with_recovery` rebuilds and restores per a
  :class:`RecoveryPolicy` when the watchdog escalates past the throttle
  rung, and aborts when restores are exhausted.
* :mod:`repro.health.forensics` — the post-mortem:
  :func:`write_forensics_bundle` gathers recording, snapshot, critpath
  and the watchdog log when the ladder aborts.

The chaos soak harness that exercises all of this end to end lives in
:mod:`repro.chaos` (``python -m repro.chaos``); tuning guidance is in
``docs/HEALTH.md``.
"""

from repro.errors import HealthAbort, HealthIntervention
from repro.health.forensics import write_forensics_bundle
from repro.health.recovery import (
    RecoveryPolicy,
    RecoveryResult,
    run_with_recovery,
)
from repro.health.watchdog import (
    DEFAULT_LADDER,
    HealthConfig,
    HealthEvent,
    Watchdog,
)

__all__ = [
    "DEFAULT_LADDER",
    "HealthAbort",
    "HealthConfig",
    "HealthEvent",
    "HealthIntervention",
    "RecoveryPolicy",
    "RecoveryResult",
    "Watchdog",
    "run_with_recovery",
    "write_forensics_bundle",
]
