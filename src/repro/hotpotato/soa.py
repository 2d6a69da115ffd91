"""The router handlers, inlined over the population's shared lists.

:func:`handlers` is the hot-potato model's handler table (see
:meth:`repro.core.lp.Model.vector_plan`) over the one router population
(:class:`~repro.hotpotato.router.RouterLP`, whose state already lives in
population-shared flat lists and whose packets are tuples).  The Time
Warp kernel — in-process and in every process-mode worker, traced or
not, under either rollback strategy — asks for it whenever the model
offers one, and its batch loop calls ``table[ev.kind](ev, dst, rng)`` for
ARRIVE, ROUTE and INJECT events (``RouterLP.forward`` runs INIT and
HEARTBEAT).

Each handler is the router's own handler for that kind with everything
run-constant hoisted into closure cells: the shared ``links`` /
``head_gen`` lists, the per-LP stats, fault view, link-existence tuple
and neighbor table, the configuration, ``BuschHotPotatoPolicy.route``
and the stock application's destination draw (same LCG steps as
:class:`~repro.rng.streams.ReversibleStream`).  It writes the same
``event.saved`` entries, so ``RouterLP.reverse`` undoes it and a copy
snapshot restores it; it draws the same numbers and sends the same
events through the same per-LP send, so a run stepped through the table
is bit-identical to one ``RouterLP.forward`` steps — it is the *same*
computation with less interpreter dispatch per event
(``tests/test_executor_abi.py`` compares the two).  The journal, RNG
count, processed list and cost charges are the kernel batch's, done
once per event whichever handler runs.

The table is offered for the configuration its inlined rules are written
for (:meth:`HotPotatoModel.vector_plan`: the Busch policy and the stock
injection application, on a torus or a mesh, with or without a fault
plan); everywhere else ``RouterLP.forward`` runs every event.
"""

from __future__ import annotations

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

__all__ = ["handlers"]


def handlers(lps: list[RouterLP], send_by_lp: list) -> dict:
    """``{ARRIVE: arrive, ROUTE: route, INJECT: inject}`` over ``lps``.

    Each handler takes ``(ev, dst, rng)`` — the event, its destination
    router's id and that router's RNG stream — and sends through
    ``send_by_lp[dst]``, the send the kernel bound for that router.  One
    table serves every PE: nothing in it is per PE.
    """
    first = lps[0]
    links = first.links
    head_gen = first.head_gen
    cfg = first.cfg
    topo = first.topo
    route_info = topo.route_info
    stats_by_lp = [lp.stats for lp in lps]
    faults_by_lp = [lp.faults for lp in lps]
    exists_by_lp = [lp.exists for lp in lps]
    # Flat neighbor table: ``nbrs[4 * id + d]``.
    nbrs: list = []
    for lp in lps:
        nbrs.extend(lp.neighbors)
    absorb_sleeping = cfg.absorb_sleeping
    sleeping_p = cfg.sleeping_upgrade_p
    active_p = cfg.active_upgrade_p
    jitter_on = cfg.arrival_jitter
    slots = cfg.jitter_slots
    two_slots = 2 * slots
    span = topo.num_nodes - 1

    def arrive(ev, dst, rng):
        data = ev.data
        step = data[0]
        flt = faults_by_lp[dst]
        if flt is not None and flt.crashed(step):
            stats_by_lp[dst].fault_dropped_crash += 1
            ev.saved["fdrop"] = True
            return
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
            return
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

    def route(ev, dst, rng):
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
        if flt is not None:
            basemask = (f0, f1, f2, f3)
            f0, f1, f2, f3 = flt.mask(basemask, step)
            if not (f0 or f1 or f2 or f3):
                st.fault_dropped_no_link += 1
                saved["fdrop"] = True
                return
            saved.pop("fdrop", None)
        if not (f0 or f1 or f2 or f3):
            # Transient overflow (see RouterLP._route).
            d = 0 if ex[0] else 1 if ex[1] else 2 if ex[2] else 3
            saved["route"] = (d, links[base + d], False, False, False, False, data[2])
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
            return
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
                rng._state = state = (MULTIPLIER * rng._state + INCREMENT) & MASK64
                rng._count += 1
                if (state >> 11) * _INV_2_53 < sleeping_p:
                    newp = 1
                    upgraded = True
                else:
                    newp = 0
            elif deflected:
                rng._state = state = (MULTIPLIER * rng._state + INCREMENT) & MASK64
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
            d, links[base + d], deflected, upgraded, demoted, off_turn, priority,
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

    def inject(ev, dst, rng):
        step = ev.data
        send = send_by_lp[dst]
        send(step + 1 + INJECT_OFFSET, dst, INJECT, step + 1)
        flt = faults_by_lp[dst]
        saved = ev.saved
        head = head_gen[dst]
        if (flt is not None and flt.crashed(step)) or head > step:
            saved["inject"] = None
            return
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
            return
        # _draw_dest_jitter inlined (same LCG steps).
        if jitter_on:
            s1 = (MULTIPLIER * rng._state + INCREMENT) & MASK64
            rng._state = s2 = (MULTIPLIER * s1 + INCREMENT) & MASK64
            rng._count += 2
            dest = int((s1 >> 11) * _INV_2_53 * span)
            if dest >= dst:
                dest += 1
            jitter = (1 + int((s2 >> 11) * _INV_2_53 * slots)) / two_slots
        else:
            rng._state = s1 = (MULTIPLIER * rng._state + INCREMENT) & MASK64
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
            d = 0 if free[0] else 1 if free[1] else 2 if free[2] else 3
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

    return {ARRIVE: arrive, ROUTE: route, INJECT: inject}
