"""A buffered, flow-controlled router — the contrast the title implies.

"Flow Control is a mechanism in which packet sources adjust their load so
that they do not overload a network ... [hot-potato routing] allows a much
higher utilization of network links where flow controlled routing results
in significant under-utilization" (§1.2.3).  To make that comparison
measurable, this module implements a classic store-and-forward network
*with* flow control on the same Time Warp kernel:

* each router has one FIFO output queue per link (unbounded — safety comes
  from source throttling, not link back-pressure, so the torus cannot
  deadlock);
* each link forwards one packet per time step (same raw capacity as the
  bufferless network);
* packets follow dimension-order (row-first) routing, never deflect, and
  queue when the link is busy;
* every source runs *end-to-end window flow control*: at most ``window``
  of its packets may be outstanding in the network; delivery triggers an
  acknowledgement back to the source, opening the window again.

The ABL-BASE benchmark runs this side by side with the hot-potato network
and reports delivery time, injection wait and link utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.event import Event
from repro.core.lp import LogicalProcess, Model
from repro.errors import ConfigurationError
from repro.net import DIRECTIONS, TOPOLOGIES, GridTopology

__all__ = ["BufferedConfig", "BufferedRouterLP", "BufferedModel"]

# Event kinds.
B_INIT = "B_INIT"
B_ARRIVE = "B_ARRIVE"
B_STEP = "B_STEP"
B_INJECT = "B_INJECT"
B_ACK = "B_ACK"

# Virtual-time layout within a step: arrivals land, the ACK control plane
# reports deliveries, links are served, then sources inject for next step.
ARRIVE_OFFSET = 0.25
ACK_OFFSET = 0.5
STEP_OFFSET = 0.6
INJECT_OFFSET = 0.9
INIT_TS = 0.1


@dataclass(frozen=True)
class BufferedConfig:
    """Parameters of the flow-controlled baseline network."""

    n: int = 8
    duration: float = 100.0
    injector_fraction: float = 1.0
    #: End-to-end window: max packets a source may have outstanding.
    window: int = 4
    #: A name from :data:`repro.net.TOPOLOGIES`.
    topology: str = "torus"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not 0.0 <= self.injector_fraction <= 1.0:
            raise ConfigurationError("injector_fraction must be in [0, 1]")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.topology!r}")

    @property
    def num_routers(self) -> int:
        return self.n * self.n


class BufferedRouterLP(LogicalProcess):
    """Store-and-forward router with per-link FIFOs and source windowing."""

    __slots__ = (
        "cfg",
        "topo",
        "is_injector",
        "neighbors",
        "exists",
        "queues",
        "outstanding",
        "head_gen_step",
        "delivered",
        "total_delivery_time",
        "max_delivery_time",
        "injected",
        "total_inject_wait",
        "max_inject_wait",
        "window_blocked",
        "forwarded",
        "queue_len_sum",
        "queue_samples",
        "util_claimed",
        "util_samples",
    )

    def __init__(
        self,
        lp_id: int,
        cfg: BufferedConfig,
        topo: GridTopology,
        is_injector: bool,
    ) -> None:
        super().__init__(lp_id)
        self.cfg = cfg
        self.topo = topo
        self.is_injector = is_injector
        self.neighbors = tuple(topo.neighbor(lp_id, d) for d in DIRECTIONS)
        self.exists = tuple(nb is not None for nb in self.neighbors)
        #: One FIFO per output link.
        self.queues: tuple[list, ...] = tuple([] for _ in DIRECTIONS)
        #: Source-window usage (packets of ours still in the network).
        self.outstanding = 0
        self.head_gen_step = 0
        # Statistics (all reversible).
        self.delivered = 0
        self.total_delivery_time = 0
        self.max_delivery_time = 0
        self.injected = 0
        self.total_inject_wait = 0
        self.max_inject_wait = 0
        #: Injection attempts refused because the window was full.
        self.window_blocked = 0
        self.forwarded = 0
        self.queue_len_sum = 0
        self.queue_samples = 0
        self.util_claimed = 0
        self.util_samples = 0

    # ------------------------------------------------------------------
    def on_init(self) -> None:
        self.send(INIT_TS, self.id, B_INIT)

    def forward(self, event: Event) -> None:
        kind = event.kind
        if kind == B_ARRIVE:
            self._arrive(event)
        elif kind == B_STEP:
            self._step(event)
        elif kind == B_INJECT:
            self._inject(event)
        elif kind == B_ACK:
            self.outstanding -= 1
        elif kind == B_INIT:
            self.send(STEP_OFFSET, self.id, B_STEP, {"step": 0})
            if self.is_injector:
                self.send(INJECT_OFFSET, self.id, B_INJECT, {"step": 0})
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown event kind {kind!r}")

    def reverse(self, event: Event) -> None:
        kind = event.kind
        if kind == B_ARRIVE:
            self._rc_arrive(event)
        elif kind == B_STEP:
            self._rc_step(event)
        elif kind == B_INJECT:
            self._rc_inject(event)
        elif kind == B_ACK:
            self.outstanding += 1
        # B_INIT only sends events; the kernel cancels them.

    # ------------------------------------------------------------------
    def _enqueue(self, pkt: dict[str, Any]) -> int:
        """Queue a packet on its dimension-order output link."""
        d = self.topo.homerun_dir(self.id, pkt["dest"])
        assert d is not None, "enqueue at destination"
        self.queues[d].append(pkt)
        return d

    def _arrive(self, event: Event) -> None:
        pkt = event.data
        step = pkt["step"]
        if pkt["dest"] == self.id:
            dt = step - pkt["inject_step"]
            self.delivered += 1
            self.total_delivery_time += dt
            prev_max = self.max_delivery_time
            if dt > prev_max:
                self.max_delivery_time = dt
            event.saved["deliver"] = prev_max
            # Open the source's window via the ACK control plane.
            self.send(step + ACK_OFFSET, pkt["src"], B_ACK)
            return
        event.saved.pop("deliver", None)
        self._enqueue(pkt)

    def _rc_arrive(self, event: Event) -> None:
        prev_max = event.saved.pop("deliver", None)
        pkt = event.data
        if prev_max is not None:
            dt = pkt["step"] - pkt["inject_step"]
            self.delivered -= 1
            self.total_delivery_time -= dt
            self.max_delivery_time = prev_max
            return
        d = self.topo.homerun_dir(self.id, pkt["dest"])
        popped = self.queues[d].pop()
        assert popped is pkt, "reverse out of order"

    # ------------------------------------------------------------------
    def _step(self, event: Event) -> None:
        """Serve each output link: forward one queued packet per step."""
        step = event.data["step"]
        served: list[tuple[int, dict[str, Any]]] = []
        qlen = 0
        for d in DIRECTIONS:
            q = self.queues[d]
            qlen += len(q)
            if q and self.exists[d]:
                pkt = q.pop(0)
                served.append((d, pkt))
                nxt = dict(pkt)
                nxt["step"] = step + 1
                self.send(step + 1 + ARRIVE_OFFSET, self.neighbors[d], B_ARRIVE, nxt)
        event.saved["served"] = served
        self.forwarded += len(served)
        self.queue_len_sum += qlen
        self.queue_samples += 1
        self.util_claimed += len(served)
        self.util_samples += sum(self.exists)
        self.send(step + 1 + STEP_OFFSET, self.id, B_STEP, {"step": step + 1})

    def _rc_step(self, event: Event) -> None:
        served = event.saved["served"]
        qlen = sum(len(q) for q in self.queues) + len(served)
        for d, pkt in reversed(served):
            self.queues[d].insert(0, pkt)
        self.forwarded -= len(served)
        self.queue_len_sum -= qlen
        self.queue_samples -= 1
        self.util_claimed -= len(served)
        self.util_samples -= sum(self.exists)

    # ------------------------------------------------------------------
    def _inject(self, event: Event) -> None:
        step = event.data["step"]
        self.send(step + 1 + INJECT_OFFSET, self.id, B_INJECT, {"step": step + 1})
        pending = (step + 1) - self.head_gen_step
        if pending <= 0:
            event.saved["inject"] = None
            return
        if self.outstanding >= self.cfg.window:
            self.window_blocked += 1
            event.saved["inject"] = ()
            return
        d = self.rng.integer(0, self.topo.num_nodes - 2)
        dest = d + 1 if d >= self.id else d
        wait = step - self.head_gen_step
        prev_max = self.max_inject_wait
        pkt = {
            "step": step,
            "dest": dest,
            "inject_step": step,
            "src": self.id,
        }
        qdir = self._enqueue(pkt)
        event.saved["inject"] = (qdir, wait, prev_max)
        self.outstanding += 1
        self.head_gen_step += 1
        self.injected += 1
        self.total_inject_wait += wait
        if wait > prev_max:
            self.max_inject_wait = wait

    def _rc_inject(self, event: Event) -> None:
        saved = event.saved["inject"]
        if saved is None:
            return
        if saved == ():
            self.window_blocked -= 1
            return
        qdir, wait, prev_max = saved
        self.queues[qdir].pop()
        self.outstanding -= 1
        self.head_gen_step -= 1
        self.injected -= 1
        self.total_inject_wait -= wait
        self.max_inject_wait = prev_max

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        return (
            tuple(list(q) for q in self.queues),
            self.outstanding,
            self.head_gen_step,
            tuple(
                getattr(self, name)
                for name in (
                    "delivered",
                    "total_delivery_time",
                    "max_delivery_time",
                    "injected",
                    "total_inject_wait",
                    "max_inject_wait",
                    "window_blocked",
                    "forwarded",
                    "queue_len_sum",
                    "queue_samples",
                    "util_claimed",
                    "util_samples",
                )
            ),
        )

    def restore_state(self, snapshot: Any) -> None:
        queues, outstanding, head, counters = snapshot
        for q, saved in zip(self.queues, queues):
            q[:] = saved
        self.outstanding = outstanding
        self.head_gen_step = head
        for name, value in zip(
            (
                "delivered",
                "total_delivery_time",
                "max_delivery_time",
                "injected",
                "total_inject_wait",
                "max_inject_wait",
                "window_blocked",
                "forwarded",
                "queue_len_sum",
                "queue_samples",
                "util_claimed",
                "util_samples",
            ),
            counters,
        ):
            setattr(self, name, value)


class BufferedModel(Model):
    """The flow-controlled store-and-forward network model."""

    def __init__(self, cfg: BufferedConfig | None = None) -> None:
        self.cfg = cfg if cfg is not None else BufferedConfig()
        self.topo: GridTopology = TOPOLOGIES[self.cfg.topology](self.cfg.n)
        self.grid = (self.cfg.n, self.cfg.n)
        num = self.cfg.num_routers
        frac = self.cfg.injector_fraction
        k = max(1, round(frac * num)) if frac > 0 else 0
        marks = [False] * num
        for i in range(k):
            marks[(i * num) // k] = True
        self.injectors = tuple(marks)

    def build(self) -> list[LogicalProcess]:
        return [
            BufferedRouterLP(i, self.cfg, self.topo, self.injectors[i])
            for i in range(self.cfg.num_routers)
        ]

    def collect_stats(self, lps: list[LogicalProcess]) -> dict[str, Any]:
        delivered = sum(lp.delivered for lp in lps)
        injected = sum(lp.injected for lp in lps)
        total_dt = sum(lp.total_delivery_time for lp in lps)
        total_wait = sum(lp.total_inject_wait for lp in lps)
        util_claimed = sum(lp.util_claimed for lp in lps)
        util_samples = sum(lp.util_samples for lp in lps)
        qsum = sum(lp.queue_len_sum for lp in lps)
        qn = sum(lp.queue_samples for lp in lps)
        return {
            "policy": "buffered-flow-control",
            "n": self.cfg.n,
            "window": self.cfg.window,
            "delivered": delivered,
            "injected": injected,
            "avg_delivery_time": total_dt / delivered if delivered else 0.0,
            "max_delivery_time": max((lp.max_delivery_time for lp in lps), default=0),
            "avg_inject_wait": total_wait / injected if injected else 0.0,
            "max_inject_wait": max((lp.max_inject_wait for lp in lps), default=0),
            "window_blocked": sum(lp.window_blocked for lp in lps),
            "forwarded": sum(lp.forwarded for lp in lps),
            "link_utilization": util_claimed / util_samples if util_samples else 0.0,
            "avg_queue_length": qsum / qn if qn else 0.0,
            "per_router": tuple(
                (lp.delivered, lp.injected, lp.forwarded, lp.outstanding)
                for lp in lps
            ),
        }
