"""Struct-of-arrays hot-potato routers and the vectorized band stepper.

This is the hot-potato model's band-stepping build (see
:meth:`repro.core.lp.Model.build_vectorized`), which the Time Warp kernel
— in-process and in every process-mode worker — takes whenever the model
offers it.  Two pieces:

:class:`SlottedRouterLP`
    A drop-in :class:`~repro.hotpotato.router.RouterLP` replacement whose
    mutable state lives in arrays *shared across the whole population* —
    one flat ``links`` list (4 slots per router), one ``head_gen`` list,
    one ``stats`` list — and whose packet payloads are plain tuples
    ``(step, dest, priority, inject_step, jitter, distance, src)``
    instead of dicts.  Every handler performs the exact operation
    sequence of the scalar router — same RNG draws, same send
    timestamps, same statistics arithmetic — so the SoA population is
    bit-identical to the scalar one (``tests/test_executor_abi.py``
    asserts this).  Tuple payloads cross a process boundary as positional
    ring frames: the ``P_*`` order below is the field order of
    ``HotPotatoModel.mp_event_schema()``.

:class:`HotPotatoVectorPlan`
    The vector plan consumed by the Time Warp kernel's fast-path
    installer.  Its :meth:`~HotPotatoVectorPlan.compile_batch` returns a
    fused per-PE batch loop that exploits the model's virtual-time band
    structure: within a unit step ``s`` every event falls in one of three
    bands — arrivals in ``[s, s+0.6)``, route decisions in
    ``[s+0.6, s+0.9)``, injection/heartbeat in ``[s+0.9, s+1)`` — and
    every event in a band only ever *sends into a later band* (ARRIVE
    sends ROUTE at ``s+0.6+…``; ROUTE/INJECT send into step ``s+1``).
    So the whole run of pending events below the current band edge can be
    popped **up front** and stepped through per-kind fused loops with the
    router handlers inlined over the shared arrays, without any event in
    the run being cancelled, superseded or re-ordered mid-run:

    * nothing executed in the run schedules below the edge (band rule,
      IEEE-exact: all offsets are nonnegative float additions);
    * a mid-run rollback elsewhere only cancels events *above* the edge
      (an in-run send has ``ts >= edge``, every event a rollback it
      triggers undoes has a key above that send, and cancelled children
      have keys above their parents);
    * partial runs (capped by the optimism batch) are safe for the same
      reason — the remainder just heads the next batch.

    The fused steppers preserve the scalar batch's per-event operation
    sequence exactly (journal reset, RNG accounting, processed-list
    append, the per-event float busy charges), so a vectorized run is
    bit-identical to a scalar run — it is the *same* computation with
    less interpreter dispatch per event.

The plan is only installed under the conditions the Time Warp kernel
checks (immediate or ring transport, no tracer, aggressive cancellation,
reverse computation); in every other configuration the SoA LPs run
through the kernel's scalar batch unchanged.  The sequential and
conservative engines build ``RouterLP``.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any

from repro.core.event import Event
from repro.core.lp import LogicalProcess
from repro.errors import ModelError
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.policy import RoutingPolicy, first_free, first_free_good
from repro.hotpotato.router import (
    ARRIVE,
    FIXED_JITTER,
    HEARTBEAT,
    HEARTBEAT_OFFSET,
    INIT,
    INIT_TS,
    INJECT,
    INJECT_OFFSET,
    ROUTE,
    ROUTE_BASE,
    ROUTE_JITTER_SCALE,
    ROUTE_PRIO_STRIDE,
)
from repro.hotpotato.stats import RouterStats
from repro.net import DIRECTIONS, GridTopology
from repro.rng.lcg import INCREMENT, MASK64, MULTIPLIER, _INV_2_53

__all__ = [
    "SlottedRouterLP",
    "SlottedRouterLPWithLog",
    "HotPotatoVectorPlan",
    "build_soa",
]

#: Payload tuple layout for ARRIVE/ROUTE events (INJECT and HEARTBEAT
#: carry the bare step int; INIT carries nothing).
P_STEP, P_DEST, P_PRIORITY, P_INJECT_STEP, P_JITTER, P_DISTANCE, P_SRC = range(7)


class SlottedRouterLP(LogicalProcess):
    """Bufferless router over population-shared flat arrays.

    Behaviourally identical to :class:`~repro.hotpotato.router.RouterLP`;
    see the module docstring for the state layout.  ``links[base+d]``
    (``base = 4*id``) replaces the per-router claim list and
    ``head_gen[id]`` the per-router injection head; ``stats[id]`` is this
    router's :class:`~repro.hotpotato.stats.RouterStats` (a real object,
    so stats aggregation and snapshots are unchanged).
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
        stats: RouterStats,
        delivery_log: list | None = None,
    ) -> None:
        super().__init__(lp_id)
        self.cfg = cfg
        self.topo = topo
        self.policy = policy
        self.is_injector = is_injector
        self.delivery_log = delivery_log
        self.neighbors = tuple(topo.neighbor(lp_id, d) for d in DIRECTIONS)
        self.exists = tuple(nb is not None for nb in self.neighbors)
        #: Shared flat claim array; this router owns ``[base, base+4)``.
        self.links = links
        self.base = lp_id * 4
        #: Shared injection-head array; this router owns slot ``id``.
        self.head_gen = head_gen
        self.stats = stats
        self.faults = None

    # ------------------------------------------------------------------
    # Startup / dispatch (identical shape to RouterLP).
    # ------------------------------------------------------------------
    def on_init(self) -> None:
        self.send(INIT_TS, self.id, INIT)

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
    # Shared helpers (RNG sequences identical to RouterLP's).
    # ------------------------------------------------------------------
    def _draw_destination(self) -> int:
        d = self.rng.integer(0, self.topo.num_nodes - 2)
        return d + 1 if d >= self.id else d

    def _draw_dest_jitter(self) -> tuple[int, float]:
        cfg = self.cfg
        if cfg.arrival_jitter:
            slots = cfg.jitter_slots
            dest, j = self.rng.integer2(0, self.topo.num_nodes - 2, 1, slots)
            if dest >= self.id:
                dest += 1
            return dest, j / (2 * slots)
        return self._draw_destination(), FIXED_JITTER

    # ------------------------------------------------------------------
    # INIT.
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
                self.send(
                    0 + 1 + jitter,
                    self.neighbors[d],
                    ARRIVE,
                    (
                        1,
                        dest,
                        0,  # Priority.SLEEPING
                        0,
                        jitter,
                        self.topo.route_info(self.id, dest)[3],
                        self.id,
                    ),
                )
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
    # ARRIVE.
    # ------------------------------------------------------------------
    def _arrive(self, event: Event) -> None:
        data = event.data
        step: int = data[0]
        flt = self.faults
        if flt is not None and flt.crashed(step):
            self.stats.fault_dropped_crash += 1
            event.saved["fdrop"] = True
            return
        priority = data[2]
        if data[1] == self.id and (priority != 0 or self.cfg.absorb_sleeping):
            st = self.stats
            dt = step - data[3]
            st.delivered += 1
            st.total_delivery_time += dt
            st.total_distance += data[5]
            st.delivered_by_priority[priority] += 1
            prev_max = st.max_delivery_time
            if dt > prev_max:
                st.max_delivery_time = dt
            event.saved["absorb"] = prev_max
            return
        rank = 3 - priority
        ts = (
            step
            + ROUTE_BASE
            + ROUTE_PRIO_STRIDE * rank
            + ROUTE_JITTER_SCALE * data[4]
        )
        # Reuse the same payload tuple (read-only by contract, like the
        # scalar router's shared dict).
        self.send(ts, self.id, ROUTE, data)
        event.saved.pop("absorb", None)

    def _rc_arrive(self, event: Event) -> None:
        if self.faults is not None and event.saved.pop("fdrop", None):
            self.stats.fault_dropped_crash -= 1
            return
        prev_max = event.saved.pop("absorb", None)
        if prev_max is None:
            return
        data = event.data
        st = self.stats
        dt = data[0] - data[3]
        st.delivered -= 1
        st.total_delivery_time -= dt
        st.total_distance -= data[5]
        st.delivered_by_priority[data[2]] -= 1
        st.max_delivery_time = prev_max

    # ------------------------------------------------------------------
    # ROUTE.
    # ------------------------------------------------------------------
    def _route(self, event: Event) -> None:
        data = event.data
        step: int = data[0]
        links = self.links
        base = self.base
        ex = self.exists
        free = (
            ex[0] and links[base] != step,
            ex[1] and links[base + 1] != step,
            ex[2] and links[base + 2] != step,
            ex[3] and links[base + 3] != step,
        )
        flt = self.faults
        basemask = free
        if flt is not None:
            free = flt.mask(free, step)
            if not any(free):
                st = self.stats
                st.fault_dropped_no_link += 1
                event.saved["fdrop"] = True
                return
            event.saved.pop("fdrop", None)
        if not any(free):
            st = self.stats
            d = next(dd for dd in DIRECTIONS if self.exists[dd])
            event.saved["route"] = (
                int(d), links[base + d], False, False, False, False, data[2]
            )
            event.saved["overflow"] = True
            links[base + d] = step
            st.routes += 1
            st.overflow_routes += 1
            self.send(
                step + 1 + data[4],
                self.neighbors[d],
                ARRIVE,
                (step + 1,) + data[1:],
            )
            return
        event.saved.pop("overflow", None)
        priority = data[2]
        out = self.policy.route(
            self.topo, self.id, data[1], priority, free, self.rng, self.cfg
        )
        d = out.direction
        st = self.stats
        off_turn = priority == 3 and out.demoted and not out.turning
        event.saved["route"] = (
            int(d),
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
            good = self.topo.route_info(self.id, data[1])[0]
            if any(basemask[g] and not free[g] for g in good):
                st.fault_deflections += 1
                event.saved["fdefl"] = True
        self.send(
            step + 1 + data[4],
            self.neighbors[d],
            ARRIVE,
            (
                step + 1,
                data[1],
                int(out.new_priority),
                data[3],
                data[4],
                data[5],
                data[6],
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
    # INJECT.
    # ------------------------------------------------------------------
    def _inject(self, event: Event) -> None:
        step: int = event.data
        self.send(step + 1 + INJECT_OFFSET, self.id, INJECT, step + 1)
        flt = self.faults
        if flt is not None and flt.crashed(step):
            event.saved["inject"] = None
            return
        head = self.head_gen[self.id]
        pending = (step + 1) - head
        if pending <= 0:
            event.saved["inject"] = None
            return
        links = self.links
        base = self.base
        ex = self.exists
        free = (
            ex[0] and links[base] != step,
            ex[1] and links[base + 1] != step,
            ex[2] and links[base + 2] != step,
            ex[3] and links[base + 3] != step,
        )
        if flt is not None:
            free = flt.mask(free, step)
        if not any(free):
            self.stats.inject_blocked += 1
            event.saved["inject"] = ()
            return
        dest, jitter = self._draw_dest_jitter()
        d = first_free_good(self.topo, self.id, dest, free)
        if d is None:
            d = first_free(free)
            assert d is not None
        st = self.stats
        wait = step - head
        prev_max = st.max_inject_wait
        event.saved["inject"] = (int(d), links[base + d], wait, prev_max)
        links[base + d] = step
        self.head_gen[self.id] = head + 1
        st.injected += 1
        st.total_inject_wait += wait
        if wait > prev_max:
            st.max_inject_wait = wait
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
    # HEARTBEAT.
    # ------------------------------------------------------------------
    def _heartbeat(self, event: Event) -> None:
        step: int = event.data
        links = self.links
        base = self.base
        claimed = sum(
            1 for d in DIRECTIONS if self.exists[d] and links[base + d] == step
        )
        st = self.stats
        st.util_claimed += claimed
        st.util_samples += sum(self.exists)
        event.saved["hb"] = claimed
        self.send(step + 1 + HEARTBEAT_OFFSET, self.id, HEARTBEAT, step + 1)

    def _rc_heartbeat(self, event: Event) -> None:
        st = self.stats
        st.util_claimed -= event.saved["hb"]
        st.util_samples -= sum(self.exists)

    # ------------------------------------------------------------------
    # Snapshots: slice this router's stripes out of the shared arrays.
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
        # In place: the shared stats list and any compiled stepper hold
        # references to this exact RouterStats object.
        st = self.stats
        for name in RouterStats.__slots__:
            v = getattr(stats, name)
            setattr(st, name, list(v) if isinstance(v, list) else v)


class SlottedRouterLPWithLog(SlottedRouterLP):
    """SoA router with the commit-time delivery log enabled.

    A subclass (rather than a branch in ``commit``) so that log-off runs
    keep the base class's inherited no-op ``commit`` — the Time Warp
    kernel's fossil collector detects that and skips the per-event commit
    dispatch entirely.
    """

    __slots__ = ()

    def commit(self, event: Event) -> None:
        if event.kind == ARRIVE and "absorb" in event.saved:
            data = event.data
            self.delivery_log.append((data[0], data[0] - data[3]))


class HotPotatoVectorPlan:
    """Fused band-stepping plan for an SoA hot-potato population.

    Holds the shared arrays plus everything the compiled batch needs
    hoisted; see the module docstring for the band-safety argument.
    """

    def __init__(
        self,
        lps: list[SlottedRouterLP],
        links: list[int],
        head_gen: list[int],
        stats: list[RouterStats],
        cfg: HotPotatoConfig,
        topo: GridTopology,
    ) -> None:
        self.lps = lps
        self.links = links
        self.head_gen = head_gen
        self.stats = stats
        self.cfg = cfg
        self.topo = topo
        #: Flat neighbor table (``neighbors[4*id + d]``).
        self.neighbors: list = []
        for lp in lps:
            self.neighbors.extend(lp.neighbors)
        #: Per-LP fault view (or None) and link-existence tuple, fixed at
        #: build time; every PE's compiled batch shares these two lists.
        self.faults_by_lp = [lp.faults for lp in lps]
        self.exists_by_lp = [lp.exists for lp in lps]

    # ------------------------------------------------------------------
    def compile_batch(
        self, kernel, pe, use_heap: bool, processed_append_by_lp, send_by_lp
    ):
        """Build the fused per-PE batch loop (vectorized band stepping).

        Same contract as the kernel's scalar ``_compile_batch``:
        ``batch(max_events, limit_ts) -> done``.  The loop pops the whole
        run of pending events below the current band edge, then steps the
        run through per-kind fused handlers with the shared arrays and
        every run-constant hoisted into cell variables.
        Operation-for-operation identical to the scalar batch.

        ``processed_append_by_lp`` and ``send_by_lp`` (the kernel's fused
        per-LP send closures) are per-LP tables the kernel builds once
        and shares across every PE's batch, like this plan's own
        ``faults_by_lp`` / ``exists_by_lp``.
        """
        lps = kernel.lps
        pending = pe.pending
        heap = pending._heap if use_heap else None
        pop_below = pending.pop_below
        stats_pe = pe.stats
        event_cost = pe.event_cost
        faults_by_lp = self.faults_by_lp
        exists_by_lp = self.exists_by_lp
        links = self.links
        head_gen = self.head_gen
        nbrs = self.neighbors
        stats_by_lp = self.stats
        route_info = self.topo.route_info
        cfg = self.cfg
        absorb_sleeping = cfg.absorb_sleeping
        sleeping_p = cfg.sleeping_upgrade_p
        active_p = cfg.active_upgrade_p
        jitter_on = cfg.arrival_jitter
        slots = cfg.jitter_slots
        two_slots = 2 * slots
        span = self.topo.num_nodes - 1

        # --- per-kind fused steppers (run[i:j] all share one kind) --------
        def step_arrive(run, i, j):
            for k in range(i, j):
                ev = run[k]
                dst = ev.dst
                lp = lps[dst]
                ev.sent.clear()
                ev.prev_send_seq = lp.send_seq
                rng = lp.rng
                c0 = rng._count
                lp._now = ev.entry[0]
                kernel._current_event = ev
                data = ev.data
                step = data[0]
                flt = faults_by_lp[dst]
                if flt is not None and flt.crashed(step):
                    stats_by_lp[dst].fault_dropped_crash += 1
                    ev.saved["fdrop"] = True
                else:
                    priority = data[2]
                    if data[1] == dst and (priority != 0 or absorb_sleeping):
                        st = stats_by_lp[dst]
                        dt = step - data[3]
                        st.delivered += 1
                        st.total_delivery_time += dt
                        st.total_distance += data[5]
                        st.delivered_by_priority[priority] += 1
                        prev_max = st.max_delivery_time
                        if dt > prev_max:
                            st.max_delivery_time = dt
                        ev.saved["absorb"] = prev_max
                    else:
                        send_by_lp[dst](
                            step
                            + ROUTE_BASE
                            + ROUTE_PRIO_STRIDE * (3 - priority)
                            + ROUTE_JITTER_SCALE * data[4],
                            dst,
                            ROUTE,
                            data,
                        )
                        ev.saved.pop("absorb", None)
                ev.rng_draws = rng._count - c0
                ev.processed = True
                processed_append_by_lp[dst](ev)
                stats_pe.busy += event_cost
                stats_pe.round_busy += event_cost

        def step_route(run, i, j):
            for k in range(i, j):
                ev = run[k]
                dst = ev.dst
                lp = lps[dst]
                ev.sent.clear()
                ev.prev_send_seq = lp.send_seq
                rng = lp.rng
                c0 = rng._count
                lp._now = ev.entry[0]
                kernel._current_event = ev
                data = ev.data
                step = data[0]
                base = dst * 4
                ex = exists_by_lp[dst]
                saved = ev.saved
                f0 = ex[0] and links[base] != step
                f1 = ex[1] and links[base + 1] != step
                f2 = ex[2] and links[base + 2] != step
                f3 = ex[3] and links[base + 3] != step
                flt = faults_by_lp[dst]
                st = stats_by_lp[dst]
                basemask = None
                dropped = False
                if flt is not None:
                    basemask = (f0, f1, f2, f3)
                    f0, f1, f2, f3 = free = flt.mask(basemask, step)
                    if not (f0 or f1 or f2 or f3):
                        st.fault_dropped_no_link += 1
                        saved["fdrop"] = True
                        dropped = True
                    else:
                        saved.pop("fdrop", None)
                if not dropped:
                    if not (f0 or f1 or f2 or f3):
                        # Transient overflow (see RouterLP._route).
                        d = 0 if ex[0] else 1 if ex[1] else 2 if ex[2] else 3
                        saved["route"] = (
                            d, links[base + d], False, False, False, False, data[2]
                        )
                        saved["overflow"] = True
                        links[base + d] = step
                        st.routes += 1
                        st.overflow_routes += 1
                        send_by_lp[dst](
                            step + 1 + data[4],
                            nbrs[base + d],
                            ARRIVE,
                            (step + 1,) + data[1:],
                        )
                    else:
                        saved.pop("overflow", None)
                        priority = data[2]
                        dest = data[1]
                        free = (f0, f1, f2, f3)
                        info = route_info(dst, dest)
                        good = info[0]
                        deflected = False
                        upgraded = False
                        demoted = False
                        off_turn = False
                        if priority >= 2:
                            # Home-run rule (BuschHotPotatoPolicy inlined).
                            want = info[1]
                            if free[want]:
                                d = want
                                upgraded = priority == 2
                                newp = 3
                            else:
                                d = None
                                for g in good:
                                    if free[g]:
                                        d = g
                                        break
                                demoted = True
                                newp = 1
                                if d is None:
                                    deflected = True
                                    d = 0 if f0 else 1 if f1 else 2 if f2 else 3
                                off_turn = priority == 3 and not info[2]
                        else:
                            # Greedy rule with the inlined upgrade draws
                            # (same LCG step as ReversibleStream.bernoulli).
                            d = None
                            for g in good:
                                if free[g]:
                                    d = g
                                    break
                            deflected = d is None
                            if deflected:
                                d = 0 if f0 else 1 if f1 else 2 if f2 else 3
                            if priority == 0:
                                rng._state = state = (
                                    MULTIPLIER * rng._state + INCREMENT
                                ) & MASK64
                                rng._count += 1
                                if (state >> 11) * _INV_2_53 < sleeping_p:
                                    newp = 1
                                    upgraded = True
                                else:
                                    newp = 0
                            elif deflected:
                                rng._state = state = (
                                    MULTIPLIER * rng._state + INCREMENT
                                ) & MASK64
                                rng._count += 1
                                if (state >> 11) * _INV_2_53 < active_p:
                                    newp = 2
                                    upgraded = True
                                else:
                                    newp = 1
                            else:
                                newp = 1
                        d = int(d)
                        saved["route"] = (
                            d, links[base + d], deflected, upgraded, demoted,
                            off_turn, priority,
                        )
                        links[base + d] = step
                        st.routes += 1
                        if deflected:
                            st.deflections += 1
                        if upgraded:
                            if priority == 0:
                                st.upgrades_sleeping += 1
                            elif priority == 1:
                                st.upgrades_active += 1
                            else:
                                st.promotions_running += 1
                        if demoted:
                            st.demotions += 1
                        if off_turn:
                            st.running_deflections_off_turn += 1
                        if flt is not None and deflected:
                            for g in good:
                                if basemask[g] and not free[g]:
                                    st.fault_deflections += 1
                                    saved["fdefl"] = True
                                    break
                        send_by_lp[dst](
                            step + 1 + data[4],
                            nbrs[base + d],
                            ARRIVE,
                            (step + 1, dest, newp, data[3], data[4], data[5], data[6]),
                        )
                ev.rng_draws = rng._count - c0
                ev.processed = True
                processed_append_by_lp[dst](ev)
                stats_pe.busy += event_cost
                stats_pe.round_busy += event_cost

        def step_inject(run, i, j):
            for k in range(i, j):
                ev = run[k]
                dst = ev.dst
                lp = lps[dst]
                ev.sent.clear()
                ev.prev_send_seq = lp.send_seq
                rng = lp.rng
                c0 = rng._count
                lp._now = ev.entry[0]
                kernel._current_event = ev
                step = ev.data
                send = send_by_lp[dst]
                send(step + 1 + INJECT_OFFSET, dst, INJECT, step + 1)
                flt = faults_by_lp[dst]
                saved = ev.saved
                head = head_gen[dst]
                if flt is not None and flt.crashed(step):
                    saved["inject"] = None
                elif (step + 1) - head <= 0:
                    saved["inject"] = None
                else:
                    base = dst * 4
                    ex = exists_by_lp[dst]
                    free = (
                        ex[0] and links[base] != step,
                        ex[1] and links[base + 1] != step,
                        ex[2] and links[base + 2] != step,
                        ex[3] and links[base + 3] != step,
                    )
                    if flt is not None:
                        free = flt.mask(free, step)
                    if not (free[0] or free[1] or free[2] or free[3]):
                        stats_by_lp[dst].inject_blocked += 1
                        saved["inject"] = ()
                    else:
                        # _draw_dest_jitter inlined (same LCG steps).
                        if jitter_on:
                            s1 = (MULTIPLIER * rng._state + INCREMENT) & MASK64
                            rng._state = s2 = (MULTIPLIER * s1 + INCREMENT) & MASK64
                            rng._count += 2
                            dest = int((s1 >> 11) * _INV_2_53 * span)
                            if dest >= dst:
                                dest += 1
                            jitter = (
                                1 + int((s2 >> 11) * _INV_2_53 * slots)
                            ) / two_slots
                        else:
                            rng._state = s1 = (
                                MULTIPLIER * rng._state + INCREMENT
                            ) & MASK64
                            rng._count += 1
                            dest = int((s1 >> 11) * _INV_2_53 * span)
                            if dest >= dst:
                                dest += 1
                            jitter = FIXED_JITTER
                        info = route_info(dst, dest)
                        d = None
                        for g in info[0]:
                            if free[g]:
                                d = g
                                break
                        if d is None:
                            d = (
                                0 if free[0]
                                else 1 if free[1]
                                else 2 if free[2]
                                else 3
                            )
                        d = int(d)
                        st = stats_by_lp[dst]
                        wait = step - head
                        prev_max = st.max_inject_wait
                        saved["inject"] = (d, links[base + d], wait, prev_max)
                        links[base + d] = step
                        head_gen[dst] = head + 1
                        st.injected += 1
                        st.total_inject_wait += wait
                        if wait > prev_max:
                            st.max_inject_wait = wait
                        send(
                            step + 1 + jitter,
                            nbrs[base + d],
                            ARRIVE,
                            (step + 1, dest, 0, step, jitter, info[3], dst),
                        )
                ev.rng_draws = rng._count - c0
                ev.processed = True
                processed_append_by_lp[dst](ev)
                stats_pe.busy += event_cost
                stats_pe.round_busy += event_cost

        def step_generic(run, i, j):
            for k in range(i, j):
                ev = run[k]
                dst = ev.dst
                lp = lps[dst]
                ev.sent.clear()
                ev.prev_send_seq = lp.send_seq
                rng = lp.rng
                c0 = rng._count
                lp._now = ev.entry[0]
                kernel._current_event = ev
                lp.forward(ev)
                ev.rng_draws = rng._count - c0
                ev.processed = True
                processed_append_by_lp[dst](ev)
                stats_pe.busy += event_cost
                stats_pe.round_busy += event_cost

        steppers = {ARRIVE: step_arrive, ROUTE: step_route, INJECT: step_inject}
        get_stepper = steppers.get

        # --- the batch loop: pop a band run, step it in kind spans --------
        def vec_batch(max_events, limit_ts):
            done = 0
            batches = 0
            try:
                while done < max_events:
                    # Pop the first live event below limit_ts.
                    if use_heap:
                        while True:
                            if not heap:
                                return done
                            entry = heap[0]
                            ev = entry[4]
                            if ev.cancelled:
                                heappop(heap)
                                ev.in_pending = False
                                continue
                            if entry[0] >= limit_ts:
                                return done
                            heappop(heap)
                            ev.in_pending = False
                            break
                        ts0 = entry[0]
                    else:
                        ev = pop_below(limit_ts)
                        if ev is None:
                            return done
                        ts0 = ev.entry[0]
                    # Band edge for ts0 (see module docstring): nothing
                    # executed below the edge can schedule below it.
                    s = float(int(ts0))
                    if ts0 < s + ROUTE_BASE:
                        edge = s + ROUTE_BASE
                    elif ts0 < s + INJECT_OFFSET:
                        edge = s + INJECT_OFFSET
                    else:
                        edge = s + 1.0
                    if edge > limit_ts:
                        edge = limit_ts
                    # Collect the run: every live pending event below the
                    # edge, capped by the optimism batch.
                    run = [ev]
                    room = max_events - done - 1
                    if use_heap:
                        while room > 0:
                            if not heap:
                                break
                            entry = heap[0]
                            nxt = entry[4]
                            if nxt.cancelled:
                                heappop(heap)
                                nxt.in_pending = False
                                continue
                            if entry[0] >= edge:
                                break
                            heappop(heap)
                            nxt.in_pending = False
                            run.append(nxt)
                            room -= 1
                    else:
                        while room > 0:
                            nxt = pop_below(edge)
                            if nxt is None:
                                break
                            run.append(nxt)
                            room -= 1
                    # Step the run in maximal same-kind spans.
                    n = len(run)
                    i = 0
                    while i < n:
                        kind = run[i].kind
                        j = i + 1
                        while j < n and run[j].kind == kind:
                            j += 1
                        get_stepper(kind, step_generic)(run, i, j)
                        i = j
                    done += n
                    batches += 1
                return done
            finally:
                kernel._current_event = None
                if done:
                    if use_heap:
                        pending._live -= done
                    stats_pe.processed += done
                    kernel.soa_batches += batches
                    kernel.soa_lps_stepped += done

        return vec_batch


def build_soa(model) -> tuple[list[SlottedRouterLP], HotPotatoVectorPlan]:
    """Build the SoA population + plan for a :class:`HotPotatoModel`."""
    cfg = model.cfg
    topo = model.topo
    n = cfg.num_routers
    links = [-1] * (4 * n)
    head_gen = [0] * n
    stats = [RouterStats() for _ in range(n)]
    log = model.delivery_log if cfg.delivery_log else None
    cls = SlottedRouterLPWithLog if log is not None else SlottedRouterLP
    lps = [
        cls(
            i,
            cfg,
            topo,
            model.policy,
            model.injectors[i],
            links,
            head_gen,
            stats[i],
            log,
        )
        for i in range(n)
    ]
    views = model._fault_views
    if views:
        for i, faults in views.items():
            lps[i].faults = faults
    plan = HotPotatoVectorPlan(lps, links, head_gen, stats, cfg, topo)
    return lps, plan
