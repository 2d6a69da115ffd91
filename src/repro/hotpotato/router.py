"""The bufferless router LP with its four event handlers (and reverses).

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
``s + 1``.  Every handler records what it changed in ``event.saved`` and
has an exact reverse, so the model runs unmodified on the Time Warp kernel.

:class:`RouterLP` is the only router class: every engine — sequential,
conservative, Time Warp in-process and in process-mode workers — runs the
population :meth:`HotPotatoModel.build` returns.  Its mutable state lives
in two lists *shared across the population* (one flat ``links`` list, four
slots per router, and one ``head_gen`` list), which is what lets the
inlined handler table (:mod:`repro.hotpotato.soa`) and the sequential
band program (:mod:`repro.hotpotato.band`) run the same routers over the
same state without copying it in or out.  An
ARRIVE or ROUTE event carries its packet as one tuple in
:data:`PACKET_FIELDS` order — a new tuple per hop, so reverse computation
never has to undo packet mutations, only router state; INJECT and
HEARTBEAT carry the bare step; INIT carries nothing.
"""

from __future__ import annotations

from typing import Any

from repro.core.event import Event
from repro.core.lp import LogicalProcess
from repro.errors import ModelError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.policy import RoutingPolicy, first_free, first_free_good
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
        #: so the ``faults is None`` fast paths below are the common case
        #: and a faults-off run executes exactly the pre-fault code.
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
    # Dispatch.
    # ------------------------------------------------------------------
    def forward(self, event: Event) -> None:
        kind = event.kind
        if kind == ARRIVE:
            self._arrive(event)
        elif kind == ROUTE:
            self._route(event)
        elif kind == INJECT:
            self._inject(event)
        elif kind == HEARTBEAT:
            self._heartbeat(event)
        elif kind == INIT:
            self._init_fill(event)
        else:  # pragma: no cover - defensive
            raise ModelError(f"router {self.id}: unknown event kind {kind!r}")

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

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------
    def _draw_jitter(self) -> float:
        """Per-packet arrival offset in (0, 0.5] (one draw, or none)."""
        cfg = self.cfg
        if cfg.arrival_jitter:
            return self.rng.integer(1, cfg.jitter_slots) / (2 * cfg.jitter_slots)
        return FIXED_JITTER

    def _draw_dest_jitter(self) -> tuple[int, float]:
        """Uniform destination among the other routers, then the jitter.

        With jitter enabled the two RNG steps are one
        :meth:`ReversibleStream.integer2` call.
        """
        cfg = self.cfg
        if cfg.arrival_jitter:
            slots = cfg.jitter_slots
            dest, j = self.rng.integer2(0, self.topo.num_nodes - 2, 1, slots)
            jitter = j / (2 * slots)
        else:
            dest = self.rng.integer(0, self.topo.num_nodes - 2)
            jitter = FIXED_JITTER
        return (dest + 1 if dest >= self.id else dest), jitter

    def _free_mask(self, step: int) -> tuple[bool, bool, bool, bool]:
        links = self.links
        base = self.base
        ex = self.exists
        return (
            ex[0] and links[base] != step,
            ex[1] and links[base + 1] != step,
            ex[2] and links[base + 2] != step,
            ex[3] and links[base + 3] != step,
        )

    def _send_new_packet(
        self, d: int, step: int, dest: int, jitter: float
    ) -> None:
        """Put a Sleeping packet born at ``step`` on output link ``d``."""
        self.send(
            step + 1 + jitter,
            self.neighbors[d],
            ARRIVE,
            (
                step + 1,
                dest,
                0,  # Priority.SLEEPING
                step,
                jitter,
                self.topo.route_info(self.id, dest)[3],
                self.id,
            ),
        )

    # ------------------------------------------------------------------
    # INIT: seed the network "to full (four packets per router)" (§3.3.1).
    # ------------------------------------------------------------------
    def _init_fill(self, event: Event) -> None:
        cfg = self.cfg
        seeded: list[int] = []
        flt = self.faults
        alive = flt is None or not flt.crashed(0)
        if cfg.initial_fill > 0.0 and alive:
            links = self.links
            base = self.base
            for d in DIRECTIONS:
                if not self.exists[d]:
                    continue
                if flt is not None and not flt.usable(d, 0):
                    continue
                if cfg.initial_fill < 1.0 and not self.rng.bernoulli(cfg.initial_fill):
                    continue
                dest, jitter = self._draw_dest_jitter()
                links[base + d] = 0
                seeded.append(d)
                self._send_new_packet(d, 0, dest, jitter)
        event.saved["seeded"] = seeded
        self.stats.initial_packets += len(seeded)
        if self.is_injector:
            self.send(INJECT_OFFSET, self.id, INJECT, 0)
        if cfg.heartbeat:
            self.send(HEARTBEAT_OFFSET, self.id, HEARTBEAT, 0)

    def _rc_init_fill(self, event: Event) -> None:
        seeded = event.saved["seeded"]
        links = self.links
        base = self.base
        for d in seeded:
            links[base + d] = -1
        self.stats.initial_packets -= len(seeded)

    # ------------------------------------------------------------------
    # ARRIVE: absorb at destination, else queue a ROUTE decision.
    # ------------------------------------------------------------------
    def _arrive(self, event: Event) -> None:
        data = event.data
        step, dest, priority, inject_step, jitter, distance, _ = data
        flt = self.faults
        if flt is not None and flt.crashed(step):
            # The router is dead this step: the packet is lost (even at
            # its destination — nobody is home to absorb it).  The crash
            # predicate depends only on the step, so every re-execution
            # of this event takes this same branch.
            self.stats.fault_dropped_crash += 1
            event.saved["fdrop"] = True
            return
        if dest == self.id and (priority != 0 or self.cfg.absorb_sleeping):
            # Absorption: record delivery statistics; the output link the
            # packet would have used stays free for injection (§4.1).
            st = self.stats
            dt = step - inject_step
            st.delivered += 1
            st.total_delivery_time += dt
            st.total_distance += distance
            st.delivered_by_priority[priority] += 1
            prev_max = st.max_delivery_time
            if dt > prev_max:
                st.max_delivery_time = dt
            event.saved["absorb"] = prev_max
            return
        rank = 3 - priority  # Priority.route_rank without the enum call
        ts = step + ROUTE_BASE + ROUTE_PRIO_STRIDE * rank + ROUTE_JITTER_SCALE * jitter
        # The ROUTE event reuses the same payload tuple (no copy).
        self.send(ts, self.id, ROUTE, data)
        event.saved.pop("absorb", None)

    def _rc_arrive(self, event: Event) -> None:
        if self.faults is not None and event.saved.pop("fdrop", None):
            self.stats.fault_dropped_crash -= 1
            return
        prev_max = event.saved.pop("absorb", None)
        if prev_max is None:
            return  # only sent a ROUTE event; the kernel cancels it
        step, _, priority, inject_step, _, distance, _ = event.data
        st = self.stats
        st.delivered -= 1
        st.total_delivery_time -= step - inject_step
        st.total_distance -= distance
        st.delivered_by_priority[priority] -= 1
        st.max_delivery_time = prev_max

    # ------------------------------------------------------------------
    # ROUTE: claim an output link per the policy; forward the packet.
    # ------------------------------------------------------------------
    def _route(self, event: Event) -> None:
        step, dest, priority, inject_step, jitter, distance, src = event.data
        links = self.links
        base = self.base
        free = basemask = self._free_mask(step)
        saved = event.saved
        st = self.stats
        flt = self.faults
        if flt is not None:
            free = flt.mask(free, step)
            if not any(free):
                # Every surviving output link is faulted (or claimed):
                # a bufferless router cannot hold the packet, so it is
                # lost.  In a committed timeline this occurs exactly when
                # faults locally exceed the healthy-grid invariant of
                # "arrivals <= free links"; transient contention-only
                # versions of this state (see the overflow branch below)
                # take the same branch and are always rolled back.
                st.fault_dropped_no_link += 1
                saved["fdrop"] = True
                return
            saved.pop("fdrop", None)
        if not any(free):
            # More packets than output links.  In a committed timeline this
            # is impossible (the bufferless invariant).  Speculatively it
            # needs an arrival whose sender has already been rolled back
            # while the anti-message is still on its way (held by a ring
            # or a fault-wrapped transport); no run has been seen to reach
            # it, but nothing proves it unreachable, so the guard stays.
            # Such states are always rolled back, so route "impossibly"
            # on the first physical link and count it; committed
            # statistics must show zero overflows (asserted across the
            # test suite).
            d = self.exists.index(True)
            saved["route"] = (d, links[base + d], False, False, False, False, priority)
            saved["overflow"] = True
            links[base + d] = step
            st.routes += 1
            st.overflow_routes += 1
            self.send(
                step + 1 + jitter,
                self.neighbors[d],
                ARRIVE,
                (step + 1, dest, priority, inject_step, jitter, distance, src),
            )
            return
        saved.pop("overflow", None)
        out = self.policy.route(
            self.topo, self.id, dest, priority, free, self.rng, self.cfg
        )
        d = int(out.direction)
        off_turn = priority == 3 and out.demoted and not out.turning
        saved["route"] = (
            d,
            links[base + d],
            out.deflected,
            out.upgraded,
            out.demoted,
            off_turn,
            priority,
        )
        links[base + d] = step
        st.routes += 1
        if out.deflected:
            st.deflections += 1
        if out.upgraded:
            if priority == 0:
                st.upgrades_sleeping += 1
            elif priority == 1:
                st.upgrades_active += 1
            else:
                st.promotions_running += 1
        if out.demoted:
            st.demotions += 1
        if off_turn:
            st.running_deflections_off_turn += 1
        if flt is not None and out.deflected:
            # Attribute the deflection to the faults when some good
            # direction was contention-free but fault-masked.
            good = self.topo.route_info(self.id, dest)[0]
            if any(basemask[g] and not free[g] for g in good):
                st.fault_deflections += 1
                saved["fdefl"] = True
        self.send(
            step + 1 + jitter,
            self.neighbors[d],
            ARRIVE,
            (
                step + 1,
                dest,
                int(out.new_priority),
                inject_step,
                jitter,
                distance,
                src,
            ),
        )

    def _rc_route(self, event: Event) -> None:
        st = self.stats
        if self.faults is not None:
            if event.saved.pop("fdrop", None):
                st.fault_dropped_no_link -= 1
                return
            if event.saved.pop("fdefl", None):
                st.fault_deflections -= 1
        d, prev_claim, deflected, upgraded, demoted, off_turn, priority = event.saved[
            "route"
        ]
        self.links[self.base + d] = prev_claim
        st.routes -= 1
        if event.saved.pop("overflow", None):
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

    # ------------------------------------------------------------------
    # INJECT: one injection attempt per step (§3.1.4).
    # ------------------------------------------------------------------
    def _inject(self, event: Event) -> None:
        """Inject the oldest waiting packet if one is due and a link is free.

        Who generated it is the only difference between the stock
        application and an adversary: the application generates one
        packet per step from step 0 and its destination is drawn here;
        an adversary script fixed ``(gen_step, dest)`` when the plan was
        expanded, ``head_gen`` is its cursor, and the arrival jitter is
        the only runtime draw.  Admission is the same bufferless rule for
        both (the adversary controls generation, not admission, §4.1),
        and so is what :meth:`_rc_inject` has to undo.
        """
        step: int = event.data
        self.send(step + 1 + INJECT_OFFSET, self.id, INJECT, step + 1)
        saved = event.saved
        saved["inject"] = None
        flt = self.faults
        if flt is not None and flt.crashed(step):
            # A crashed router injects nothing; generation continues (the
            # application is still producing), so the backlog drains
            # through the normal wait-time machinery after recovery.
            return
        head = self.head_gen[self.id]
        script = self.adversary
        if script is None:
            gen_step = head
        elif head < len(script):
            gen_step, dest = script[head]
        else:
            return  # script exhausted
        if gen_step > step:
            return  # nothing generated yet is still waiting
        free = self._free_mask(step)
        if flt is not None:
            free = flt.mask(free, step)
        if not any(free):
            # "a packet can only be injected when there is a free link at
            # that router" (§4.1) — blocked this step.
            self.stats.inject_blocked += 1
            saved["inject"] = ()
            return
        if script is None:
            dest, jitter = self._draw_dest_jitter()
        else:
            jitter = self._draw_jitter()
        d = first_free_good(self.topo, self.id, dest, free)
        if d is None:
            d = first_free(free)
            assert d is not None
        d = int(d)
        st = self.stats
        wait = step - gen_step
        prev_max = st.max_inject_wait
        slot = self.base + d
        saved["inject"] = (d, self.links[slot], wait, prev_max)
        self.links[slot] = step
        self.head_gen[self.id] = head + 1
        st.injected += 1
        st.total_inject_wait += wait
        if wait > prev_max:
            st.max_inject_wait = wait
        self._send_new_packet(d, step, dest, jitter)

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

    # ------------------------------------------------------------------
    # HEARTBEAT: sample output-link utilisation (optional, §3.1.4).
    # ------------------------------------------------------------------
    def _heartbeat(self, event: Event) -> None:
        step: int = event.data
        degree = sum(self.exists)
        claimed = degree - sum(self._free_mask(step))
        st = self.stats
        st.util_claimed += claimed
        st.util_samples += degree
        event.saved["hb"] = claimed
        self.send(step + 1 + HEARTBEAT_OFFSET, self.id, HEARTBEAT, step + 1)

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
