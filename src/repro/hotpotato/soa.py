"""The vectorized band stepper: the Time Warp kernel's fused batch loop.

:class:`HotPotatoVectorPlan` is the hot-potato model's *vector plan* (see
:meth:`repro.core.lp.Model.vector_plan`) over the one router population
(:class:`~repro.hotpotato.router.RouterLP`, whose state already lives in
population-shared flat lists and whose packets are tuples).  The Time
Warp kernel — in-process and in every process-mode worker — asks for it
whenever the model offers one.  Its
:meth:`~HotPotatoVectorPlan.compile_batch` returns a fused per-PE batch
loop that exploits the model's virtual-time band structure: within a unit
step ``s`` every event falls in one of three bands — arrivals in
``[s, s+0.6)``, route decisions in ``[s+0.6, s+0.9)``, injection/heartbeat
in ``[s+0.9, s+1)`` — and every event in a band only ever *sends into a
later band* (ARRIVE sends ROUTE at ``s+0.6+…``; ROUTE/INJECT send into
step ``s+1``).  So the whole run of pending events below the current band
edge can be popped **up front** and stepped through per-kind fused loops
with the router handlers inlined over the shared lists, without any event
in the run being cancelled, superseded or re-ordered mid-run:

* nothing executed in the run schedules below the edge (band rule,
  IEEE-exact: all offsets are nonnegative float additions);
* a mid-run rollback elsewhere only cancels events *above* the edge (an
  in-run send has ``ts >= edge``, every event a rollback it triggers
  undoes has a key above that send, and cancelled children have keys
  above their parents);
* partial runs (capped by the optimism batch) are safe for the same
  reason — the remainder just heads the next batch.

The fused steppers preserve the per-event batch's operation sequence
exactly (journal reset, RNG accounting, processed-list append, the
per-event float busy charges), so a band-stepped run is bit-identical to
one the routers' own handlers execute — it is the *same* computation over
the same routers with less interpreter dispatch per event
(``tests/test_executor_abi.py`` compares the two).

The plan is only installed under the conditions the Time Warp kernel
checks (immediate or ring transport, no tracer, reverse computation),
and only offered for the configuration its inlined
rules are written for (:meth:`HotPotatoModel.vector_plan`); everywhere
else the kernel's per-event batch steps the same population.
"""

from __future__ import annotations

from heapq import heappop

from repro.hotpotato.router import (
    ARRIVE,
    FIXED_JITTER,
    INJECT,
    INJECT_OFFSET,
    ROUTE,
    ROUTE_BASE,
    ROUTE_JITTER_SCALE,
    ROUTE_PRIO_STRIDE,
    RouterLP,
)
from repro.rng.lcg import INCREMENT, MASK64, MULTIPLIER, _INV_2_53

__all__ = ["HotPotatoVectorPlan"]


class HotPotatoVectorPlan:
    """Fused band-stepping plan over a built hot-potato population.

    Holds the population's shared lists plus everything the compiled
    batch needs hoisted; see the module docstring for the band-safety
    argument.
    """

    def __init__(self, lps: list[RouterLP]) -> None:
        #: What every router of the population shares.
        first = lps[0]
        self.links = first.links
        self.head_gen = first.head_gen
        self.cfg = first.cfg
        self.topo = first.topo
        #: Per-LP stats object, fault view (or None), link-existence tuple
        #: and flat neighbor table (``neighbors[4*id + d]``), fixed at
        #: build time; every PE's compiled batch shares these lists.
        self.stats = [lp.stats for lp in lps]
        self.faults_by_lp = [lp.faults for lp in lps]
        self.exists_by_lp = [lp.exists for lp in lps]
        self.neighbors: list = []
        for lp in lps:
            self.neighbors.extend(lp.neighbors)

    # ------------------------------------------------------------------
    def compile_batch(
        self, kernel, pe, processed_append_by_lp, send_by_lp
    ):
        """Build the fused per-PE batch loop (vectorized band stepping).

        Same contract as the kernel's per-event ``_compile_batch``:
        ``batch(max_events, limit_ts) -> done``.  The loop pops the whole
        run of pending events below the current band edge, then steps the
        run through per-kind fused handlers with the shared arrays and
        every run-constant hoisted into cell variables.
        Operation-for-operation identical to the per-event batch.

        ``processed_append_by_lp`` and ``send_by_lp`` (the kernel's fused
        per-LP send closures) are per-LP tables the kernel builds once
        and shares across every PE's batch, like this plan's own
        ``faults_by_lp`` / ``exists_by_lp``.
        """
        lps = kernel.lps
        pending = pe.pending
        heap = pending._heap
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
                lp._now = ev.key[0]
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
                lp._now = ev.key[0]
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
                lp._now = ev.key[0]
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
                lp._now = ev.key[0]
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
                    while room > 0 and heap:
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
                    pending._live -= done
                    stats_pe.processed += done
                    kernel.soa_batches += batches
                    kernel.soa_lps_stepped += done

        return vec_batch
