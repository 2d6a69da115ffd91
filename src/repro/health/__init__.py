"""Liveness watchdog: a sick run is throttled or stopped.

:mod:`repro.health.watchdog` holds the in-run monitor.  Attach a
:class:`Watchdog` to any engine via ``engine.attach_health(wd)``; its
detectors (GVT stall, livelock, rollback thrash, memory growth) run at
quiescent boundaries only, so the fused fast paths stay installed.  A
trip has one of two outcomes: an adaptive Time Warp kernel has its
optimism throttle tightened (at most ``throttle_steps`` times), and
anything else raises :class:`~repro.errors.HealthIntervention` with
action ``"abort"`` out of ``run()``.  Restarting a stopped run is the
caller's business: the sweep supervisor kills and resumes a point from
its latest snapshot (:mod:`repro.experiments.supervisor`).

Tuning guidance is in ``docs/HEALTH.md``.
"""

from repro.errors import HealthIntervention
from repro.health.watchdog import HealthConfig, HealthEvent, Watchdog

__all__ = ["HealthConfig", "HealthEvent", "HealthIntervention", "Watchdog"]
