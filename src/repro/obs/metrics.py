"""GVT-interval metrics: the kernel's time series, not just its totals.

The report's figures are end-of-run aggregates, but diagnosing a run —
a rollback storm, throttle oscillation, pending-queue growth — needs the
*trajectory*: one :class:`MetricSample` per GVT round.  A
:class:`MetricsRecorder` attaches to any of the three engines via their
``attach_metrics`` method and is fed cumulative counters at each GVT
boundary (the conservative kernel runs Time Warp's round loop, so its
boundaries are GVT rounds too, one per YAWNS window; every ``interval``
events for the sequential engine, which has no rounds);
it converts them to per-interval deltas.

Design constraints, in order:

* **Zero overhead when detached.**  The kernels consult the recorder
  only at GVT boundaries, never per event (a
  :class:`~repro.core.trace.Tracer` is the one hook the optimistic
  kernel's batch calls per event).
* **Bounded memory when streaming.**  With a ``sink``, samples are
  written through as produced; ``keep=False`` then drops them from
  memory entirely, so an arbitrarily long run records in O(1) space.
* **Determinism.**  Every sampled quantity is a deterministic function
  of the simulation, so two runs of the same seed produce identical
  sample streams — the telemetry itself is replay-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["MetricSample", "MetricsRecorder"]


@dataclass(frozen=True)
class MetricSample:
    """One GVT-interval observation of kernel state.

    Counter fields (``committed`` … ``fossil_collected``) are *deltas*
    over the interval since the previous sample; gauge fields
    (``pending`` … ``pool_hit_rate``) are instantaneous values at the
    sample point.
    """

    #: Sample index (GVT round for the Time Warp and conservative
    #: kernels).
    round: int
    #: Virtual-time floor at the sample point (GVT; event ts for
    #: sequential).
    gvt: float
    #: Events committed during the interval.
    committed: int
    #: Events forward-executed during the interval (includes work that
    #: may later be undone).
    processed: int
    #: Events undone by rollbacks during the interval.
    rolled_back: int
    #: Rollback episodes started during the interval.
    rollbacks: int
    #: Straggler arrivals during the interval.
    stragglers: int
    #: Events fossil-collected during the interval.
    fossil_collected: int
    #: Live events across all pending queues at the sample point.
    pending: int
    #: Processed-but-uncommitted events across all KPs at the sample
    #: point (0 for the sequential engine, which commits as it executes).
    processed_depth: int
    #: Optimism-throttle factor at the sample point (1.0 when off).
    throttle: float
    #: Cumulative event-pool hit rate at the sample point.
    pool_hit_rate: float
    #: Per-KP events rolled back during the interval; only KPs with a
    #: nonzero delta appear (empty for non-optimistic engines).
    kp_rolled_back: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat JSON-ready dict (KP keys become strings in JSON)."""
        d = {
            "round": self.round,
            "gvt": self.gvt,
            "committed": self.committed,
            "processed": self.processed,
            "rolled_back": self.rolled_back,
            "rollbacks": self.rollbacks,
            "stragglers": self.stragglers,
            "fossil_collected": self.fossil_collected,
            "pending": self.pending,
            "processed_depth": self.processed_depth,
            "throttle": self.throttle,
            "pool_hit_rate": self.pool_hit_rate,
        }
        if self.kp_rolled_back:
            d["kp_rolled_back"] = {str(k): v for k, v in self.kp_rolled_back.items()}
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetricSample":
        """Inverse of :meth:`as_dict` (the JSONL loader's entry point)."""
        return cls(
            round=int(d["round"]),
            gvt=float(d["gvt"]),
            committed=int(d["committed"]),
            processed=int(d["processed"]),
            rolled_back=int(d["rolled_back"]),
            rollbacks=int(d["rollbacks"]),
            stragglers=int(d["stragglers"]),
            fossil_collected=int(d["fossil_collected"]),
            pending=int(d["pending"]),
            processed_depth=int(d["processed_depth"]),
            throttle=float(d["throttle"]),
            pool_hit_rate=float(d["pool_hit_rate"]),
            # Keys are read by name, so a recording that still carries a
            # since-deleted counter (the band-stepping pair, the lazy
            # cancellation pair) loads too.
            kp_rolled_back={
                int(k): int(v) for k, v in d.get("kp_rolled_back", {}).items()
            },
        )


class MetricsRecorder:
    """Collects :class:`MetricSample` rows from a kernel, one per GVT round.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.obs.recorder.JsonlSink`; samples are
        written through as produced (bounded memory for long runs).
    keep:
        Keep samples in :attr:`samples` (default).  With a sink
        attached, ``keep=False`` streams only.
    interval:
        Sampling period, in events, for engines without GVT rounds (the
        sequential engine).  Ignored by the round-driven engines.
    """

    def __init__(self, sink=None, *, keep: bool = True, interval: int = 1024) -> None:
        if interval < 1:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sink = sink
        self.keep = keep
        self.interval = interval
        self.samples: list[MetricSample] = []
        self.n_samples = 0
        # Previous cumulative counter values (delta computation).
        self._prev = {
            "committed": 0,
            "processed": 0,
            "rolled_back": 0,
            "rollbacks": 0,
            "stragglers": 0,
            "fossil_collected": 0,
        }
        self._prev_kp: list[int] | None = None

    def sample(
        self,
        *,
        gvt: float,
        committed: int,
        processed: int,
        rolled_back: int = 0,
        rollbacks: int = 0,
        stragglers: int = 0,
        fossil_collected: int = 0,
        pending: int = 0,
        processed_depth: int = 0,
        throttle: float = 1.0,
        pool_hit_rate: float = 0.0,
        kp_rolled_back: list[int] | None = None,
    ) -> MetricSample:
        """Feed *cumulative* counters; records and returns the delta sample.

        ``kp_rolled_back`` is the cumulative per-KP ``events_rolled_back``
        vector; only KPs whose count advanced since the last sample make
        it into the stored delta map.
        """
        prev = self._prev
        kp_delta: dict[int, int] = {}
        if kp_rolled_back is not None:
            prev_kp = self._prev_kp
            if prev_kp is None:
                prev_kp = [0] * len(kp_rolled_back)
            for kp_id, (now, before) in enumerate(zip(kp_rolled_back, prev_kp)):
                if now != before:
                    kp_delta[kp_id] = now - before
            self._prev_kp = list(kp_rolled_back)
        s = MetricSample(
            round=self.n_samples,
            gvt=gvt,
            committed=committed - prev["committed"],
            processed=processed - prev["processed"],
            rolled_back=rolled_back - prev["rolled_back"],
            rollbacks=rollbacks - prev["rollbacks"],
            stragglers=stragglers - prev["stragglers"],
            fossil_collected=fossil_collected - prev["fossil_collected"],
            pending=pending,
            processed_depth=processed_depth,
            throttle=throttle,
            pool_hit_rate=pool_hit_rate,
            kp_rolled_back=kp_delta,
        )
        prev["committed"] = committed
        prev["processed"] = processed
        prev["rolled_back"] = rolled_back
        prev["rollbacks"] = rollbacks
        prev["stragglers"] = stragglers
        prev["fossil_collected"] = fossil_collected
        self.n_samples += 1
        if self.sink is not None:
            self.sink.write_metric(s)
        if self.keep:
            self.samples.append(s)
        return s

    def __len__(self) -> int:
        return self.n_samples
