"""The sequential band program: the router handlers stepped a band at a time.

Hot-potato routing is synchronous — every packet moves every step — and
inside step ``s`` the model's virtual-time layout (see
:mod:`repro.hotpotato.router`) puts every event into one of four bands
that only ever send into a *later* one:

=========  ==========================  ================================
band       timestamps                  sends
=========  ==========================  ================================
ARRIVE     ``(s, s + 0.5]``            ROUTE of step ``s``
ROUTE      ``[s + 0.6, s + 0.77]``     ARRIVE of step ``s + 1``
INJECT     ``s + 0.9``                 INJECT and ARRIVE of ``s + 1``
HEARTBEAT  ``s + 0.95``                HEARTBEAT of step ``s + 1``
=========  ==========================  ================================

So when a band starts, every event it will ever hold already exists, and
the order the sequential engine's heap would pop them in is the order of
their ``(ts, origin, seq)`` keys: one ``list.sort()`` of flat tuples that
start with that key.  INJECT and HEARTBEAT are self-sends that all carry
the same timestamp, so their key order is LP-id order and they need no
list at all.  :func:`run_bands` keeps each packet as one tuple — the
event's key and destination, then its payload as it stands
(:data:`~repro.hotpotato.router.PACKET_FIELDS`) —

``(ts, origin, seq, dst, step, dest, priority, inject_step, jitter,
distance, src)``

and runs the rules of the model's handler table
(:mod:`repro.hotpotato.handlers`, which the per-event loop dispatches
through) inlined over the routers' own shared ``links`` / ``head_gen``
lists — same float expressions, same LCG steps in the same order,
``send_seq`` advanced on every send — so every key, every tie-break,
every statistic and every RNG state is the per-event loop's.  It shares
no code with the table: this is the second statement of the Busch rule,
kept for speed, and ``tests/test_band_program.py`` compares the two.  No
``Event`` is built, no heap is pushed or popped and no handler is
dispatched per packet; events exist only where the program is entered
and left, through ``engine.pending``.  The program is entered at the start
of any integer step and left at any barrier: a step end is a consistent
cut (the next step's ARRIVEs and one INJECT / HEARTBEAT per router), so
the sequential engine leaves there to consult its hooks and re-enters at
the next step.  An attached tracer is given each executed event's EXEC
and COMMIT records, built from the band's sorted tuples in a pass of
their own.

:meth:`HotPotatoModel.band_program` offers the program only for the
configuration the inlined rules are written for (Busch policy, torus, no
model faults, no adversary script).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.event import Event
from repro.errors import ModelError
from repro.hotpotato.router import (
    ARRIVE,
    FIXED_JITTER,
    HEARTBEAT,
    HEARTBEAT_OFFSET,
    INJECT,
    INJECT_OFFSET,
    P_STEP,
    ROUTE,
    ROUTE_BASE,
    ROUTE_JITTER_SCALE,
    ROUTE_PRIO_STRIDE,
)
from repro.rng.lcg import INCREMENT, MASK64, MULTIPLIER, _INV_2_53
from repro.vt.time import EventKey

__all__ = ["BAND_START", "run_bands"]

#: Where a fresh run hands over from the per-event loop: the first
#: integer step boundary, the first of the program's entry points.
#: Everything below it (INIT at 0.1, the step-0 INJECT and HEARTBEAT) has
#: run as ordinary events, so the initial fill and its Bernoulli draws
#: have exactly one rendering.
BAND_START = 1.0

#: ``EventKey(ts, origin, seq)`` without the named-tuple constructor.
_tuple_new = tuple.__new__

#: How many fields of a band tuple — ``(ts, origin, seq, dst)`` — come
#: before the event's packet tuple.
_KEY_FIELDS = 4


def run_bands(engine, processed: int, step: int, end: float):
    """Run ``engine`` from the start of integer step ``step`` to ``end``.

    A generator: after each band it yields ``(now, processed, pending)``
    — the virtual time reached, the cumulative event count and the number
    of events in flight — so the engine can pace its metric samples and
    ``exec`` spans; the engine must exhaust it.  On entry ``engine.pending``
    holds exactly what the per-event loop leaves at ``step``: the ARRIVEs
    of that step and one INJECT / HEARTBEAT per router that has one.
    ``links`` and ``head_gen`` are the population's own lists, updated in
    place.  On exit at ``end`` (at most ``engine.end_time``) — inside a
    band, between two or at a step end — the routers' ``send_seq`` / RNG
    state and count are written back, ``engine.sends`` is advanced, and
    the events not yet due are pushed back into ``engine.pending``, so the
    engine is in the state the per-event loop would have left (``lp._now``
    apart, which only has meaning inside a handler).  With
    ``engine.tracer`` set, every executed event is recorded as the
    per-event loop records it: EXEC then COMMIT, in key order.
    """
    lps = engine.lps
    model = engine.model
    cfg = model.cfg
    topo = model.topo
    pending = engine.pending
    tracer = engine.tracer
    n_lps = len(lps)

    # --- enter: events -> flat tuples, LP state -> flat lists -----------
    arrivals: list[tuple] = []
    inj_seq = [0] * n_lps  # seq of each router's pending INJECT self-send
    hb_seq = [0] * n_lps  # ... and of its pending HEARTBEAT
    for ev in pending.drain():
        key = ev.key
        kind = ev.kind
        data = ev.data
        if kind == ARRIVE and data[P_STEP] == step:
            arrivals.append((key[0], key[1], key[2], ev.dst) + data)
        elif kind == INJECT and data == step:
            inj_seq[ev.dst] = key[2]
        elif kind == HEARTBEAT and data == step:
            hb_seq[ev.dst] = key[2]
        else:
            raise ModelError(
                f"band program entered at step {step} with a pending {ev!r}"
            )
    injectors = [lp.id for lp in lps if lp.is_injector]
    heartbeat = cfg.heartbeat
    # The population's own state lists (every router shares them).
    links = lps[0].links
    head_gen = lps[0].head_gen
    nbrs: list[int] = []
    for lp in lps:
        nbrs.extend(lp.neighbors)
    send_seq = [lp.send_seq for lp in lps]
    rng_state, rng_count = map(list, zip(*[lp.rng.checkpoint() for lp in lps]))
    stats = [lp.stats for lp in lps]
    log = model.delivery_log if cfg.delivery_log else None
    # route_info of a healthy grid is one read of the displacement table.
    table, lin = topo.displacement_table
    absorb_sleeping = cfg.absorb_sleeping
    sleeping_p = cfg.sleeping_upgrade_p
    active_p = cfg.active_upgrade_p
    jitter_on = cfg.arrival_jitter
    slots = cfg.jitter_slots
    two_slots = 2 * slots
    n_others = topo.num_nodes - 1
    # ROUTE offset per priority: ROUTE_PRIO_STRIDE * Priority.route_rank.
    stride = [ROUTE_PRIO_STRIDE * (3 - p) for p in range(4)]
    sends = 0
    routes: list[tuple] = []
    inj_step = hb_step = step  # step of the pending INJECTs / HEARTBEATs
    n_ticks = len(injectors) + (n_lps if heartbeat else 0)

    def due(band: list[tuple], edge: float):
        """Sort ``band`` (all its events lie below ``edge``) and split it at
        the barrier: ``(events to run now, the rest, barrier inside?)``."""
        band.sort()
        if end < edge:
            cut = bisect_left(band, (end,))
            return band[:cut], band[cut:], True
        return band, [], False

    # --- one step per iteration; every event of `step` has ts > step ----
    while end > step:
        step1 = step + 1

        # ARRIVE band: absorb at the destination, else queue a ROUTE.
        route_base = step + ROUTE_BASE
        run, arrivals, last = due(arrivals, route_base)
        if tracer is not None:
            _trace(tracer, _events(run, ARRIVE))
        routes_append = routes.append
        for t in run:
            _, _, _, dst, _, dest, priority, inject_step, jitter, distance, src = t
            if dest == dst and (priority != 0 or absorb_sleeping):
                st = stats[dst]
                dt = step - inject_step
                st.delivered += 1
                st.total_delivery_time += dt
                st.total_distance += distance
                st.delivered_by_priority[priority] += 1
                if dt > st.max_delivery_time:
                    st.max_delivery_time = dt
                if log is not None:
                    log.append((step, dt))
            else:
                seq = send_seq[dst]
                send_seq[dst] = seq + 1
                routes_append((
                    route_base + stride[priority] + ROUTE_JITTER_SCALE * jitter,
                    dst, seq, dst,
                    step, dest, priority, inject_step, jitter, distance, src,
                ))
        processed += len(run)
        sends += len(routes)
        yield (
            min(route_base, end),
            processed,
            len(arrivals) + len(routes) + n_ticks,
        )
        if last:
            break

        # ROUTE band: the Busch rule (BuschHotPotatoPolicy.route inlined,
        # upgrade draws as in ReversibleStream.bernoulli), claim the
        # link, forward the packet to arrive next step.
        run, routes, last = due(routes, step + INJECT_OFFSET)
        if tracer is not None:
            _trace(tracer, _events(run, ROUTE))
        arrivals_append = arrivals.append
        for t in run:
            _, _, _, dst, _, dest, priority, inject_step, jitter, distance, src = t
            base = dst * 4
            info = table[lin[dest] - lin[dst]]
            st = stats[dst]
            newp = priority
            # A link is free iff it was not claimed this step.
            if priority >= 2 and links[base + info[1]] != step:
                # Excited / Running stay on (Excited: get on) the home run.
                slot = base + info[1]
                newp = 3
                if priority == 2:
                    st.promotions_running += 1
            else:
                for g in info[0]:
                    if links[base + g] != step:
                        slot = base + g
                        deflected = False
                        break
                else:
                    # No good link is free: the first free one in compass
                    # order (one exists: a router gets at most four
                    # packets a step).
                    deflected = True
                    st.deflections += 1
                    slot = (
                        base if links[base] != step
                        else base + 1 if links[base + 1] != step
                        else base + 2 if links[base + 2] != step
                        else base + 3
                    )
                if priority >= 2:
                    # Knocked off the home-run path: back to Active.
                    newp = 1
                    st.demotions += 1
                    if priority == 3 and not info[2]:
                        st.running_deflections_off_turn += 1
                elif priority == 0 or deflected:
                    # Upgrade chance: Sleeping on every route, Active
                    # only when deflected.
                    rng_state[dst] = state = (
                        MULTIPLIER * rng_state[dst] + INCREMENT
                    ) & MASK64
                    rng_count[dst] += 1
                    if priority == 0:
                        if (state >> 11) * _INV_2_53 < sleeping_p:
                            newp = 1
                            st.upgrades_sleeping += 1
                    elif (state >> 11) * _INV_2_53 < active_p:
                        newp = 2
                        st.upgrades_active += 1
            links[slot] = step
            st.routes += 1
            seq = send_seq[dst]
            send_seq[dst] = seq + 1
            arrivals_append((
                step1 + jitter, dst, seq, nbrs[slot],
                step1, dest, newp, inject_step, jitter, distance, src,
            ))
        processed += len(run)
        sends += len(run)
        yield (
            min(step + INJECT_OFFSET, end),
            processed,
            len(arrivals) + len(routes) + n_ticks,
        )
        if last:
            break

        # INJECT then HEARTBEAT: self-sends at one timestamp each, so key
        # order is LP-id order.
        if not step + INJECT_OFFSET < end:
            break
        if tracer is not None:
            _trace(tracer, (
                Event(EventKey(step + INJECT_OFFSET, i, inj_seq[i]), i, INJECT, step)
                for i in injectors
            ))
        for i in injectors:
            # The next INJECT is sent first, whatever happens after.
            seq = inj_seq[i] = send_seq[i]
            send_seq[i] = seq + 1
            head = head_gen[i]
            if step1 - head <= 0:
                continue
            base = i * 4
            if (
                links[base] == step
                and links[base + 1] == step
                and links[base + 2] == step
                and links[base + 3] == step
            ):
                stats[i].inject_blocked += 1
                continue
            # The stock destination draw (same LCG steps as the table's).
            s1 = (MULTIPLIER * rng_state[i] + INCREMENT) & MASK64
            dest = int((s1 >> 11) * _INV_2_53 * n_others)
            if dest >= i:
                dest += 1
            if jitter_on:
                s1 = (MULTIPLIER * s1 + INCREMENT) & MASK64
                rng_count[i] += 2
                jitter = (1 + int((s1 >> 11) * _INV_2_53 * slots)) / two_slots
            else:
                rng_count[i] += 1
                jitter = FIXED_JITTER
            rng_state[i] = s1
            info = table[lin[dest] - lin[i]]
            for g in info[0]:
                if links[base + g] != step:
                    slot = base + g
                    break
            else:
                slot = (
                    base if links[base] != step
                    else base + 1 if links[base + 1] != step
                    else base + 2 if links[base + 2] != step
                    else base + 3
                )
            st = stats[i]
            wait = step - head
            links[slot] = step
            head_gen[i] = head + 1
            st.injected += 1
            st.total_inject_wait += wait
            if wait > st.max_inject_wait:
                st.max_inject_wait = wait
            send_seq[i] = seq + 2
            sends += 1
            arrivals_append((
                step1 + jitter, i, seq + 1, nbrs[slot],
                step1, dest, 0, step, jitter, info[3], i,
            ))
        inj_step = step1
        processed += len(injectors)
        sends += len(injectors)
        last = heartbeat and not step + HEARTBEAT_OFFSET < end
        if heartbeat and not last:
            if tracer is not None:
                _trace(tracer, (
                    Event(
                        EventKey(step + HEARTBEAT_OFFSET, i, hb_seq[i]), i,
                        HEARTBEAT, step,
                    )
                    for i in range(n_lps)
                ))
            for i in range(n_lps):
                base = i * 4
                st = stats[i]
                st.util_claimed += (
                    (links[base] == step)
                    + (links[base + 1] == step)
                    + (links[base + 2] == step)
                    + (links[base + 3] == step)
                )
                st.util_samples += 4
                seq = hb_seq[i] = send_seq[i]
                send_seq[i] = seq + 1
            hb_step = step1
            processed += n_lps
            sends += n_lps
        yield (
            min(float(step1), end),
            processed,
            len(arrivals) + len(routes) + n_ticks,
        )
        if last:
            break
        step = step1

    # --- leave: flat lists -> LP state, left-over tuples -> events ------
    engine.sends += sends
    for i, lp in enumerate(lps):
        lp.send_seq = send_seq[i]
        lp.rng.restore((rng_state[i], rng_count[i]))
    left: list[Event] = []
    push = left.append
    for kind, band in ((ARRIVE, arrivals), (ROUTE, routes)):
        while band:  # popped, so each tuple is freed as its event is built
            t = band.pop()
            push(Event(_tuple_new(EventKey, t[:3]), t[3], kind, t[_KEY_FIELDS:]))
    ts = inj_step + INJECT_OFFSET
    for i in injectors:
        push(Event(_tuple_new(EventKey, (ts, i, inj_seq[i])), i, INJECT, inj_step))
    if heartbeat:
        ts = hb_step + HEARTBEAT_OFFSET
        for i in range(n_lps):
            push(Event(
                _tuple_new(EventKey, (ts, i, hb_seq[i])), i, HEARTBEAT, hb_step
            ))
    pending.extend(left)


def _events(band: list[tuple], kind: str):
    """The events a band's tuples stand for, in the band's order."""
    return (
        Event(_tuple_new(EventKey, t[:3]), t[3], kind, t[_KEY_FIELDS:])
        for t in band
    )


def _trace(tracer, events) -> None:
    """Record each event as executed and committed, as the per-event
    loop does (a sequential event commits as it executes)."""
    on_exec = tracer.on_exec
    on_commit = tracer.on_commit
    for ev in events:
        on_exec(ev)
        on_commit(ev)
