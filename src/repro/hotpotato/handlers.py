"""The router's event handlers, over the population's shared lists.

:func:`handlers` is the hot-potato model's handler table (see
:meth:`repro.core.lp.Model.handlers`) and the only per-event statement
of what a router does: every engine — the sequential oracle, the
conservative kernel, Time Warp in-process and in every process-mode
worker — calls ``table[ev.kind](ev, dst, rng)`` for all five kinds.
:class:`~repro.hotpotato.router.RouterLP` holds the state they act on and
the exact reverses of what they write.

Everything run-constant is hoisted into closure cells: the shared
``links`` / ``head_gen`` lists, the per-LP stats, fault view, adversary
script, link-existence tuple and neighbor table, the configuration and
the routing policy's bound ``route``; and the engine's one ``send``,
whose source is the router whose event is running (the ``dst`` every
handler is called with), so the table holds nothing per router and
sends only from that router.  No routing decision is inlined:
ROUTE calls ``policy.route`` for every policy, the Busch rule included,
and unpacks the plain tuple it returns
(:meth:`~repro.hotpotato.policy.RoutingPolicy.route` states the order),
so :mod:`repro.hotpotato.policy` is the one statement of each rule the
per-event path runs.  The stock application's destination draw is
inlined (same LCG steps as :class:`~repro.rng.streams.ReversibleStream`).
Each handler records what it changed in ``event.saved``, so
``RouterLP.reverse`` undoes it and a copy snapshot restores it.  The
engine gives every execution a fresh ``saved`` dict, so no handler
clears a key an earlier execution left.  The journal, RNG count,
processed list and cost charges are the engine's, done once per event.
"""

from __future__ import annotations

from repro.hotpotato.router import (
    ARRIVE,
    FIXED_JITTER,
    HEARTBEAT,
    HEARTBEAT_OFFSET,
    INIT,
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


def handlers(lps: list[RouterLP], send) -> dict:
    """``{kind: handler}`` for the five router kinds over ``lps``.

    Each handler takes ``(ev, dst, rng)`` — the event, its destination
    router's id and that router's RNG stream — and sends through
    ``send``, the engine's one send, whose source is router ``dst``: the
    router whose event is running.  One table serves every PE and every
    router: nothing in it is per PE, and the only per-router state is
    read from the population's lists.
    """
    first = lps[0]
    links = first.links
    head_gen = first.head_gen
    cfg = first.cfg
    topo = first.topo
    policy_route = first.policy.route
    route_info = topo.route_info
    stats_by_lp = [lp.stats for lp in lps]
    faults_by_lp = [lp.faults for lp in lps]
    exists_by_lp = [lp.exists for lp in lps]
    script_by_lp = [lp.adversary for lp in lps]
    # Flat neighbor table: ``nbrs[4 * id + d]``.
    nbrs: list = []
    for lp in lps:
        nbrs.extend(lp.neighbors)
    absorb_sleeping = cfg.absorb_sleeping
    initial_fill = cfg.initial_fill
    heartbeat_on = cfg.heartbeat
    jitter_on = cfg.arrival_jitter
    slots = cfg.jitter_slots
    two_slots = 2 * slots
    span = topo.num_nodes - 1

    def dest_jitter(dst, rng):
        """The stock application's packet: a uniform destination among
        the other routers, then the arrival jitter in (0, 0.5]."""
        if jitter_on:
            s1 = (MULTIPLIER * rng._state + INCREMENT) & MASK64
            rng._state = s2 = (MULTIPLIER * s1 + INCREMENT) & MASK64
            rng._count += 2
            jitter = (1 + int((s2 >> 11) * _INV_2_53 * slots)) / two_slots
        else:
            rng._state = s1 = (MULTIPLIER * rng._state + INCREMENT) & MASK64
            rng._count += 1
            jitter = FIXED_JITTER
        dest = int((s1 >> 11) * _INV_2_53 * span)
        return (dest + 1 if dest >= dst else dest), jitter

    def init(ev, dst, rng):
        # Seed the network "to full (four packets per router)" (§3.3.1).
        seeded = []
        flt = faults_by_lp[dst]
        if initial_fill > 0.0 and (flt is None or not flt.crashed(0)):
            base = dst * 4
            ex = exists_by_lp[dst]
            for d in range(4):
                if not ex[d] or (flt is not None and not flt.usable(d, 0)):
                    continue
                if initial_fill < 1.0 and not rng.bernoulli(initial_fill):
                    continue
                dest, jitter = dest_jitter(dst, rng)
                links[base + d] = 0
                seeded.append(d)
                send(
                    1 + jitter,
                    nbrs[base + d],
                    ARRIVE,
                    (1, dest, 0, 0, jitter, route_info(dst, dest)[3], dst),
                )
        ev.saved["seeded"] = seeded
        stats_by_lp[dst].initial_packets += len(seeded)
        if lps[dst].is_injector:
            send(INJECT_OFFSET, dst, INJECT, 0)
        if heartbeat_on:
            send(HEARTBEAT_OFFSET, dst, HEARTBEAT, 0)

    def arrive(ev, dst, rng):
        # Absorb at the destination, else queue a ROUTE decision.
        data = ev.data
        step = data[0]
        flt = faults_by_lp[dst]
        if flt is not None and flt.crashed(step):
            # The router is dead this step: the packet is lost (even at
            # its destination — nobody is home to absorb it).
            stats_by_lp[dst].fault_dropped_crash += 1
            ev.saved["fdrop"] = True
            return
        priority = data[2]
        if data[1] == dst and (priority != 0 or absorb_sleeping):
            # The output link the packet would have used stays free for
            # injection (§4.1).
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
        # The ROUTE event reuses the same payload tuple (no copy).
        send(
            step
            + ROUTE_BASE
            + ROUTE_PRIO_STRIDE * (3 - priority)
            + ROUTE_JITTER_SCALE * data[4],
            dst,
            ROUTE,
            data,
        )

    def route(ev, dst, rng):
        # Claim an output link per the policy; forward the packet.
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
                # Every surviving output link is faulted (or claimed): a
                # bufferless router cannot hold the packet, so it is lost.
                st.fault_dropped_no_link += 1
                saved["fdrop"] = True
                return
        if not (f0 or f1 or f2 or f3):
            # More packets than output links.  In a committed timeline
            # this is impossible (the bufferless invariant).  Speculatively
            # it needs an arrival whose sender has already been rolled
            # back while the anti-message is still on its way; no run has
            # been seen to reach it, but nothing proves it unreachable, so
            # the guard stays.  Route "impossibly" on the first physical
            # link and count it; committed statistics must show zero
            # overflows (asserted across the test suite).
            d = 0 if ex[0] else 1 if ex[1] else 2 if ex[2] else 3
            saved["route"] = (d, links[base + d], False, False, False, False, data[2])
            saved["overflow"] = True
            links[base + d] = step
            st.routes += 1
            st.overflow_routes += 1
            send(
                step + 1 + data[4],
                nbrs[base + d],
                ARRIVE,
                (step + 1,) + data[1:],
            )
            return
        priority = data[2]
        dest = data[1]
        free = (f0, f1, f2, f3)
        d, newp, deflected, upgraded, demoted, turning = policy_route(
            topo, dst, dest, priority, free, rng, cfg
        )
        off_turn = demoted and priority == 3 and not turning
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
            # Attribute the deflection to the faults when some good
            # direction was contention-free but fault-masked.
            for g in route_info(dst, dest)[0]:
                if basemask[g] and not free[g]:
                    st.fault_deflections += 1
                    saved["fdefl"] = True
                    break
        send(
            step + 1 + data[4],
            nbrs[base + d],
            ARRIVE,
            (step + 1, dest, newp, data[3], data[4], data[5], data[6]),
        )

    def inject(ev, dst, rng):
        """Inject the oldest waiting packet if one is due and a link is free.

        Who generated it is the only difference between the stock
        application and an adversary: the application generates one
        packet per step from step 0 and its destination is drawn here; an
        adversary script fixed ``(gen_step, dest)`` when the plan was
        expanded, ``head_gen`` is its cursor, and the arrival jitter is
        the only runtime draw.  Admission is the same bufferless rule for
        both (the adversary controls generation, not admission, §4.1).
        """
        step = ev.data
        send(step + 1 + INJECT_OFFSET, dst, INJECT, step + 1)
        flt = faults_by_lp[dst]
        saved = ev.saved
        head = head_gen[dst]
        script = script_by_lp[dst]
        if script is None:
            gen_step = head
        elif head < len(script):
            gen_step, dest = script[head]
        else:
            gen_step = step + 1  # script exhausted: nothing is ever due
        if gen_step > step or (flt is not None and flt.crashed(step)):
            # Nothing waiting; or a crashed router, whose application
            # keeps generating into a backlog that drains after recovery.
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
            # "a packet can only be injected when there is a free link at
            # that router" (§4.1) — blocked this step.
            stats_by_lp[dst].inject_blocked += 1
            saved["inject"] = ()
            return
        if script is None:
            dest, jitter = dest_jitter(dst, rng)
        elif jitter_on:
            jitter = rng.integer(1, slots) / two_slots
        else:
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
        wait = step - gen_step
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

    def heartbeat(ev, dst, rng):
        # Sample output-link utilisation (optional, §3.1.4).
        step = ev.data
        base = dst * 4
        ex = exists_by_lp[dst]
        claimed = (
            (ex[0] and links[base] == step)
            + (ex[1] and links[base + 1] == step)
            + (ex[2] and links[base + 2] == step)
            + (ex[3] and links[base + 3] == step)
        )
        st = stats_by_lp[dst]
        st.util_claimed += claimed
        st.util_samples += ex[0] + ex[1] + ex[2] + ex[3]
        ev.saved["hb"] = claimed
        send(step + 1 + HEARTBEAT_OFFSET, dst, HEARTBEAT, step + 1)

    return {
        INIT: init,
        ARRIVE: arrive,
        ROUTE: route,
        INJECT: inject,
        HEARTBEAT: heartbeat,
    }
