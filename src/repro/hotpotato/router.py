"""The bufferless router LP: its state, event layout and reverses.

"There are four event types: ARRIVE, ROUTE, HEARTBEAT and
PACKET_INJECTION_APPLICATION" (§3.1.4); an additional INIT event performs
the startup network fill so that even initialisation is an ordinary,
rollback-safe event.

Within each unit-length time step ``s`` the virtual-time layout is:

====================  =======================================
event                 timestamp inside step ``s``
====================  =======================================
ARRIVE                ``s + jitter``, jitter in (0, 0.5]
ROUTE                 ``s + 0.6 + 0.05*rank + 0.04*jitter``
INJECT                ``s + 0.9``
HEARTBEAT             ``s + 0.95``
====================  =======================================

where ``rank`` is 0 for Running down to 3 for Sleeping — "the time stamps
of the generated ROUTE events are staggered based on priority" (§3.1.4) so
higher-priority packets claim output links first, and the carried arrival
jitter breaks same-priority contention randomly (§3.2.2).  All routing for
step ``s`` completes before injection, which completes before the
utilisation sample; packets forwarded at step ``s`` arrive at step
``s + 1``.

What a router *does* with each kind is stated once, in the model's
handler table (:mod:`repro.hotpotato.handlers`), which every engine
dispatches through.  This module holds what the handlers act on:
:class:`RouterLP` is the only router class, and every engine —
sequential, conservative, Time Warp in-process and in process-mode
workers — runs the population :meth:`HotPotatoModel.build` returns.  Its
mutable state lives in two lists *shared across the population* (one
flat ``links`` list, four slots per router, and one ``head_gen`` list),
which is what lets the handler table and the sequential band program
(:mod:`repro.hotpotato.band`) run the same routers over the same state
without copying it in or out.  Every handler records what it changed in
``event.saved``, and :meth:`RouterLP.reverse` undoes exactly that, so the
model runs unmodified on the Time Warp kernel.  An ARRIVE or ROUTE event
carries its packet as one tuple in :data:`PACKET_FIELDS` order — a new
tuple per hop, so reverse computation never has to undo packet
mutations, only router state; INJECT and HEARTBEAT carry the bare step;
INIT carries nothing.
"""

from __future__ import annotations

from typing import Any

from repro.core.event import Event
from repro.core.lp import LogicalProcess
from repro.errors import ModelError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.policy import RoutingPolicy
from repro.hotpotato.stats import RouterStats
from repro.net import DIRECTIONS, GridTopology

__all__ = [
    "RouterLP",
    "RouterLPWithLog",
    "PACKET_FIELDS",
    "INIT",
    "ARRIVE",
    "ROUTE",
    "HEARTBEAT",
    "INJECT",
]

# Event kinds (INJECT keeps the report's verbose name).
INIT = "INIT"
ARRIVE = "ARRIVE"
ROUTE = "ROUTE"
HEARTBEAT = "HEARTBEAT"
INJECT = "PACKET_INJECTION_APPLICATION"

#: The packet an ARRIVE or ROUTE event carries, in tuple order.  "The
#: packet label contains only the destination and priority" (§1.1.2);
#: the rest is the bookkeeping the report's statistics need (the step the
#: packet entered the network, how far it had to come) and the arrival
#: jitter in (0, 0.5] it keeps for life.  This is the only statement of
#: the layout: the ``P_*`` indices, the wire schema
#: (:meth:`HotPotatoModel.mp_event_schema`, whose positional ring frames
#: pack the tuple as it stands) and the band program's tuples
#: (``(ts, origin, seq, dst)`` followed by these) all derive from it.
PACKET_FIELDS = (
    "step", "dest", "priority", "inject_step", "jitter", "distance", "src"
)
#: ``struct`` character of each field on the wire.
PACKET_WIRE = "iiBidii"
P_STEP, P_DEST, P_PRIORITY, P_INJECT_STEP, P_JITTER, P_DISTANCE, P_SRC = range(
    len(PACKET_FIELDS)
)

# Virtual-time layout within a step (see module docstring).
INIT_TS = 0.1
ROUTE_BASE = 0.6
ROUTE_PRIO_STRIDE = 0.05
ROUTE_JITTER_SCALE = 0.04
INJECT_OFFSET = 0.9
HEARTBEAT_OFFSET = 0.95
#: Arrival offset used when the randomised jitter is disabled.
FIXED_JITTER = 0.25

#: Minimum virtual-time gap between any event and anything it schedules,
#: over all handler/offset combinations (the binding case is INJECT at
#: s+0.9 sending an ARRIVE at s+1+jitter with jitter >= 1/(2*jitter_slots)).
#: Declared as the model's lookahead for conservative execution.
MODEL_LOOKAHEAD = 0.1


class RouterLP(LogicalProcess):
    """One bufferless router (plus optional injection application).

    ``links[base + d]`` (``base = 4 * id``) is the last step output link
    ``d`` was claimed (-1 = never): a link is free at step ``s`` iff its
    entry differs from ``s``.  ``head_gen[id]`` is the number of packets
    injected so far — which, since the stock application generates one
    packet per step from step 0, is also the generation step of the
    oldest packet still waiting.  Priorities travel as raw ints
    (:class:`~repro.hotpotato.packet.Priority` values).
    """

    __slots__ = (
        "cfg",
        "topo",
        "policy",
        "is_injector",
        "neighbors",
        "exists",
        "links",
        "head_gen",
        "base",
        "stats",
        "delivery_log",
        "faults",
        "adversary",
    )

    def __init__(
        self,
        lp_id: int,
        cfg: HotPotatoConfig,
        topo: GridTopology,
        policy: RoutingPolicy,
        is_injector: bool,
        links: list[int],
        head_gen: list[int],
        delivery_log: list | None = None,
    ) -> None:
        super().__init__(lp_id)
        self.cfg = cfg
        self.topo = topo
        self.policy = policy
        self.is_injector = is_injector
        #: Shared model-level log written at commit time (rollback-safe).
        self.delivery_log = delivery_log
        #: Neighbor LP per direction (None off a mesh edge).
        self.neighbors = tuple(topo.neighbor(lp_id, d) for d in DIRECTIONS)
        #: Which output links physically exist (all four on a torus).
        self.exists = tuple(nb is not None for nb in self.neighbors)
        #: Shared flat claim array; this router owns ``[base, base + 4)``.
        self.links = links
        self.base = lp_id * 4
        #: Shared injection-head array; this router owns slot ``id``.
        self.head_gen = head_gen
        self.stats = RouterStats()
        #: Compiled fault view (repro.faults.views.NodeFaults) or None.
        #: The model attaches one only to routers its fault plan touches,
        #: so the handlers' ``faults is None`` fast paths are the common
        #: case and a faults-off run executes exactly the pre-fault code.
        #: Fault decisions are pure functions of ``(plan, step)``, which
        #: keeps them identical across engines and across Time Warp
        #: re-executions of the same event.
        self.faults = None
        #: Compiled adversary script — a tuple of ``(gen_step, dest)``
        #: pairs in increasing step order — or None for the stock
        #: injection application.  Like ``faults``, the model attaches
        #: one only to routers the plan names, and the decisions are pure
        #: data: identical on every engine and across re-executions.
        self.adversary = None

    # ------------------------------------------------------------------
    # Startup.
    # ------------------------------------------------------------------
    def on_init(self) -> None:
        self.send(INIT_TS, self.id, INIT)

    # ------------------------------------------------------------------
    # Reverse computation: undo what the handler table
    # (repro.hotpotato.handlers) wrote, from what it left in
    # ``event.saved``.  The kernel un-sends the messages and rewinds the
    # RNG itself.
    # ------------------------------------------------------------------
    def reverse(self, event: Event) -> None:
        kind = event.kind
        if kind == ARRIVE:
            self._rc_arrive(event)
        elif kind == ROUTE:
            self._rc_route(event)
        elif kind == INJECT:
            self._rc_inject(event)
        elif kind == HEARTBEAT:
            self._rc_heartbeat(event)
        elif kind == INIT:
            self._rc_init_fill(event)
        else:  # pragma: no cover - defensive
            raise ModelError(f"router {self.id}: unknown event kind {kind!r}")

    def _rc_init_fill(self, event: Event) -> None:
        seeded = event.saved["seeded"]
        links = self.links
        base = self.base
        for d in seeded:
            links[base + d] = -1
        self.stats.initial_packets -= len(seeded)

    def _rc_arrive(self, event: Event) -> None:
        if self.faults is not None and event.saved.get("fdrop"):
            self.stats.fault_dropped_crash -= 1
            return
        prev_max = event.saved.get("absorb")
        if prev_max is None:
            return  # only sent a ROUTE event; the kernel cancels it
        step, _, priority, inject_step, _, distance, _ = event.data
        st = self.stats
        st.delivered -= 1
        st.total_delivery_time -= step - inject_step
        st.total_distance -= distance
        st.delivered_by_priority[priority] -= 1
        st.max_delivery_time = prev_max

    def _rc_route(self, event: Event) -> None:
        st = self.stats
        if self.faults is not None:
            if event.saved.get("fdrop"):
                st.fault_dropped_no_link -= 1
                return
            if event.saved.get("fdefl"):
                st.fault_deflections -= 1
        d, prev_claim, deflected, upgraded, demoted, off_turn, priority = event.saved[
            "route"
        ]
        self.links[self.base + d] = prev_claim
        st.routes -= 1
        if event.saved.get("overflow"):
            st.overflow_routes -= 1
            return
        if deflected:
            st.deflections -= 1
        if upgraded:
            if priority == 0:
                st.upgrades_sleeping -= 1
            elif priority == 1:
                st.upgrades_active -= 1
            else:
                st.promotions_running -= 1
        if demoted:
            st.demotions -= 1
        if off_turn:
            st.running_deflections_off_turn -= 1

    def _rc_inject(self, event: Event) -> None:
        saved = event.saved["inject"]
        if saved is None:
            return
        if saved == ():
            self.stats.inject_blocked -= 1
            return
        d, prev_claim, wait, prev_max = saved
        st = self.stats
        self.links[self.base + d] = prev_claim
        self.head_gen[self.id] -= 1
        st.injected -= 1
        st.total_inject_wait -= wait
        st.max_inject_wait = prev_max

    def _rc_heartbeat(self, event: Event) -> None:
        st = self.stats
        st.util_claimed -= event.saved["hb"]
        st.util_samples -= sum(self.exists)

    # ------------------------------------------------------------------
    # State-saving snapshots: this router's stripes of the shared arrays.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        base = self.base
        return (
            self.links[base : base + 4],
            self.head_gen[self.id],
            self.stats.copy(),
        )

    def restore_state(self, snapshot: Any) -> None:
        links, head, stats = snapshot
        base = self.base
        self.links[base : base + 4] = links
        self.head_gen[self.id] = head
        # In place: the compiled handler table holds a reference to this
        # exact RouterStats object.
        st = self.stats
        for name in RouterStats.__slots__:
            v = getattr(stats, name)
            setattr(st, name, list(v) if isinstance(v, list) else v)


class RouterLPWithLog(RouterLP):
    """Router with the commit-time delivery log enabled.

    A subclass (rather than a branch in ``commit``) so that log-off runs
    keep the base class's inherited no-op ``commit`` — the Time Warp
    kernel's fossil collector detects that and skips the per-event commit
    dispatch entirely.  Commit fires exactly once per event, after it can
    never be rolled back, so appending here needs no reverse handler.
    """

    __slots__ = ()

    def commit(self, event: Event) -> None:
        if event.kind == ARRIVE and "absorb" in event.saved:
            data = event.data
            step = data[P_STEP]
            self.delivery_log.append((step, step - data[P_INJECT_STEP]))
