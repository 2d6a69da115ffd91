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
every statistic and every RNG state is the per-event loop's.  For the
Busch policy it shares no code with the table, which calls
:class:`~repro.hotpotato.policy.BuschHotPotatoPolicy`: this is the one
inlined statement of the Busch rule, kept for speed (a policy call per
packet costs about a microsecond per ROUTE).  Any other policy type is
called as the table calls it, once per packet.  The fault rules — the
crash drop, the no-link drop and the fault-deflection attribution — are
stated here a second time, over per-step data rather than the table's
per-event ``NodeFaults`` queries.  ``tests/test_band_program.py``
referees all of it against the table, so a bug in ``policy.py``, in
``handlers.py`` or here shows up there.  No
``Event`` is built, no heap is pushed or popped and no handler is
dispatched per packet.  The engine enters the program once per run: a
fresh run at step 0, where the program's first band is INIT (the
routers' ``on_init`` self-sends, each run through the handler table's
own ``init`` with a send that writes band state, so the initial fill
and its Bernoulli draws have one statement), and a resumed run at its
snapshot's step, from the band state the snapshot holds.  Every step
end is a consistent cut — the next step's ARRIVEs and one INJECT /
HEARTBEAT per router — which the program yields as a :class:`StepEnd`
for the engine's hooks to read in place while it is suspended.  At the
run's end nothing reads what is in flight unless asked, so the program
hands the engine its left-over tuples and ``engine.pending`` builds the
events on its first read.  Each band is
sorted descending and popped as it runs, so a tuple is freed as soon as
it has sent its successor.  An attached tracer is given each executed
event's EXEC and COMMIT records, built from the band's sorted tuples in
a pass of their own.

Topology, traffic and faults are data here, not cases: a flat ``live``
mask of the links that exist (all of them on a torus) guards the
fallback deflection and the blocked-injection test, and each router's
heartbeat samples its degree; an adversary's ``(gen_step, dest)`` script
is read at the ``head_gen`` cursor, and a scripted packet draws only its
jitter; a fault plan's views give each step a set of crashed routers
and a set of dead links, and a dead or statically failed link reads as
claimed for the step's ROUTE and INJECT bands.  The program runs every
configuration the handler table runs, so
:meth:`HotPotatoModel.band_program` always offers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import Callable

from repro.core.event import Event
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.hotpotato.router import (
    ARRIVE,
    FIXED_JITTER,
    HEARTBEAT,
    HEARTBEAT_OFFSET,
    INIT,
    INIT_TS,
    INJECT,
    INJECT_OFFSET,
    P_INJECT_STEP,
    P_STEP,
    ROUTE,
    ROUTE_BASE,
    ROUTE_JITTER_SCALE,
    ROUTE_PRIO_STRIDE,
)
from repro.rng.lcg import INCREMENT, MASK64, MULTIPLIER, _INV_2_53
from repro.vt.time import EventKey

__all__ = ["StepEnd", "run_bands"]

#: ``EventKey(ts, origin, seq)`` without the named-tuple constructor.
_tuple_new = tuple.__new__

#: How many fields of a band tuple — ``(ts, origin, seq, dst)`` — come
#: before the event's packet tuple.
_KEY_FIELDS = 4


@dataclass(slots=True)
class StepEnd:
    """The band program's state at a step end, read in place.

    Every packet moves every step, so a step end is a consistent cut:
    what is in flight is the ARRIVE tuples of step :attr:`step`
    (``arrivals``) and one INJECT / HEARTBEAT self-send per router, whose
    seqs are ``inj_seq`` / ``hb_seq``.  The program yields this view at
    each step end before the run's end and carries on from the same
    lists when resumed, so a hook reads it without anything being built;
    only :meth:`loop_state`, which a snapshot calls, writes state back.
    """

    arrivals: list
    inj_seq: list
    hb_seq: list
    #: Links per router: a bound on the ARRIVEs it receives a step.
    degree: list
    #: Gives the routers the ``send_seq`` / RNG state of the program's lists.
    write_back: Callable[[], None]
    #: The step about to run, the events run so far and those in flight.
    step: int = 0
    processed: int = 0
    in_flight: int = 0

    def packets(self):
        """``(dst, step, inject_step)`` of each in-flight ARRIVE."""
        d, i = _KEY_FIELDS + P_STEP, _KEY_FIELDS + P_INJECT_STEP
        return ((t[3], t[d], t[i]) for t in self.arrivals)

    def loop_state(self) -> dict:
        """What a snapshot's ``loop`` holds to resume here: the routers'
        ``send_seq`` and RNG state are written back (``engine.sends`` is
        current after every band), and the band state is copied as
        tuples and lists for :func:`run_bands` to enter from."""
        self.write_back()
        band = (list(self.arrivals), list(self.inj_seq), list(self.hb_seq))
        return {"processed": self.processed, "step": self.step, "band": band}


def run_bands(engine, processed: int, step: int, band=None):
    """Run ``engine`` from the start of integer step ``step`` to its end.

    A generator: after each band it yields ``(now, processed, pending,
    cut)`` — the virtual time reached, the cumulative event count, the
    number of events in flight and, at a step end before the run's end,
    the :class:`StepEnd` there (else ``None``) — so the engine can pace
    its metric samples and ``exec`` spans and consult its hooks; the
    engine must exhaust it.  A fresh run enters at step 0 with no
    ``band``: ``engine.pending`` then holds only the routers' INIT
    self-sends.  A resumed one enters at its snapshot's step with the
    snapshot's ``band`` (:meth:`StepEnd.loop_state`), the LPs and
    ``engine.sends`` already restored.  ``links`` and ``head_gen`` are
    the population's own lists, updated in place, and ``engine.sends``
    is advanced after every band.  At ``engine.end_time`` — before INIT,
    inside a band, between two or at a step end — the routers'
    ``send_seq`` / RNG state and count are written back, and the events
    not yet due are handed over unbuilt (``engine.defer_pending``):
    nothing runs after the run's end, and ``engine.pending`` builds them
    if it is ever read, as the per-event loop would have left them
    (``lp._now`` apart, which only has meaning inside a handler).  With
    ``engine.tracer`` set, every executed event is recorded as the
    per-event loop records it: EXEC then COMMIT, in key order.
    """
    lps = engine.lps
    model = engine.model
    cfg = model.cfg
    topo = model.topo
    tracer = engine.tracer
    end = engine.end_time
    n_lps = len(lps)

    # --- enter: step 0's INITs, or a snapshot's band state --------------
    if band is None:
        if not INIT_TS < end:
            return  # nothing is due: the INITs stay pending
        arrivals: list[tuple] = []
        inj_seq = [0] * n_lps  # seq of each router's pending INJECT self-send
        hb_seq = [0] * n_lps  # ... and of its pending HEARTBEAT
        inits = engine.pending.drain()
        # The INIT band, before the RNG and send_seq lists are gathered:
        # it draws and sends through the routers themselves.
        processed += len(inits)
        _init_band(engine, inits, arrivals, inj_seq, hb_seq)
    else:
        arrivals, inj_seq, hb_seq = (list(part) for part in band)
    injectors = [lp.id for lp in lps if lp.is_injector]
    heartbeat = cfg.heartbeat
    # The population's own state lists (every router shares them).
    links = lps[0].links
    head_gen = lps[0].head_gen
    # Flat per-link tables, ``[4 * id + d]``: the neighbor, and whether
    # the link exists (all four do on a torus; a mesh edge has fewer).
    nbrs: list = []
    live: list[bool] = []
    for lp in lps:
        nbrs.extend(lp.neighbors)
        live.extend(lp.exists)
    degree = [sum(lp.exists) for lp in lps]
    # An adversary's ``(gen_step, dest)`` script per router, or None for
    # the stock application; ``head_gen`` is the cursor into either.
    scripts = [lp.adversary for lp in lps]
    send_seq = [lp.send_seq for lp in lps]
    rng_state, rng_count = map(list, zip(*[lp.rng.checkpoint() for lp in lps]))
    stats = [lp.stats for lp in lps]
    log = model.delivery_log if cfg.delivery_log else None
    # The Busch rule is inlined below; any other policy type (a subclass
    # included: an override must not be ignored) is called per packet, as
    # the handler table calls it, on the router's own stream.
    policy = model.policy
    policy_route = None if type(policy) is BuschHotPotatoPolicy else policy.route
    rngs = [lp.rng for lp in lps]
    # Model faults as data.  Each router's fault view yields, at each
    # step start, its crash flag and its dead directions; a dead link and
    # a statically failed one read as claimed (their ``links`` slot is set
    # to the step) from the step start until HEARTBEAT samples utilisation,
    # when ``masked`` puts the old claims back.  So the rules below free
    # test them exactly as the table's ``NodeFaults.mask`` and
    # ``route_info`` do; a fault-free run builds none of it.
    views = [(lp.id, lp.faults) for lp in lps if lp.faults is not None]
    static = sorted(4 * node + d for node, d in topo.failed_links)
    crashed: set = set()  # routers crashed at this step
    dead: set = set()  # claim slots of links a fault view downs this step
    masked: list[tuple] = []  # (slot, claim) of slots reading as claimed
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
    routes: list[tuple] = []
    inj_step = hb_step = step  # step of the pending INJECTs / HEARTBEATs
    n_ticks = len(injectors) + (n_lps if heartbeat else 0)
    write_back = partial(_write_back, lps, send_seq, rng_state, rng_count)
    cut = StepEnd(arrivals, inj_seq, hb_seq, degree, write_back)

    # --- one step per iteration; every event of `step` has ts > step ----
    # (step 0's ARRIVE and ROUTE bands are empty: INIT's packets arrive at
    # step 1, and `_due` counts only what lies below the band's edge).
    while end > step:
        step1 = step + 1
        if views:
            crashed = {i for i, v in views if v.crashed(step)}
            dead = {
                4 * i + d for i, v in views for d in range(4)
                if not v.usable(d, step)
            }
        for slot in (*dead, *static):
            masked.append((slot, links[slot]))
            links[slot] = step

        # ARRIVE band: drop at a crashed router (even at its destination:
        # nobody is home to absorb it), absorb at the destination, else
        # queue a ROUTE.
        route_base = step + ROUTE_BASE
        last = end < route_base
        n = _due(arrivals, end if last else route_base)
        if tracer is not None:
            _trace(tracer, _events(arrivals, n, ARRIVE))
        processed += n
        pop = arrivals.pop
        routes_append = routes.append
        for _ in range(n):
            _, _, _, dst, _, dest, priority, inject_step, jitter, distance, src = pop()
            if crashed and dst in crashed:
                stats[dst].fault_dropped_crash += 1
                continue
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
        engine.sends += len(routes)
        yield (
            min(route_base, end), processed,
            len(arrivals) + len(routes) + n_ticks, None,
        )
        if last:
            break

        # ROUTE band: the routing rule, claim the link, forward the packet
        # to arrive next step.
        last = end < step + INJECT_OFFSET
        n = _due(routes, end if last else step + INJECT_OFFSET)
        if tracer is not None:
            _trace(tracer, _events(routes, n, ROUTE))
        processed += n
        sent = len(arrivals)
        pop = routes.pop
        arrivals_append = arrivals.append
        if policy_route is None:
            # The Busch rule (BuschHotPotatoPolicy.route inlined, upgrade
            # draws as in ReversibleStream.bernoulli).
            for _ in range(n):
                _, _, _, dst, _, dest, priority, inject_step, jitter, distance, src = pop()
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
                        # No good link is free: the first free one in
                        # compass order.  A router gets at most one packet
                        # a step per link it has, so one is free unless
                        # faults took it, and then the packet is lost.
                        slot = (
                            base if live[base] and links[base] != step
                            else base + 1 if live[base + 1] and links[base + 1] != step
                            else base + 2 if live[base + 2] and links[base + 2] != step
                            else base + 3 if live[base + 3] and links[base + 3] != step
                            else -1
                        )
                        if slot < 0:
                            st.fault_dropped_no_link += 1
                            continue
                        deflected = True
                        st.deflections += 1
                        if dead:
                            _attribute(st, dead, base, info[0])
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
        else:
            # Any other policy: the handler table's call, with its free
            # mask and its statistics, on the router's stream synced to
            # and from the loop's RNG lists.
            for _ in range(n):
                _, _, _, dst, _, dest, priority, inject_step, jitter, distance, src = pop()
                base = dst * 4
                free = (
                    live[base] and links[base] != step,
                    live[base + 1] and links[base + 1] != step,
                    live[base + 2] and links[base + 2] != step,
                    live[base + 3] and links[base + 3] != step,
                )
                st = stats[dst]
                if not (free[0] or free[1] or free[2] or free[3]):
                    # Only faults can leave a router no link (see above).
                    st.fault_dropped_no_link += 1
                    continue
                rng = rngs[dst]
                rng._state = rng_state[dst]
                rng._count = rng_count[dst]
                d, newp, deflected, upgraded, demoted, turning = policy_route(
                    topo, dst, dest, priority, free, rng, cfg
                )
                rng_state[dst] = rng._state
                rng_count[dst] = rng._count
                slot = base + d
                links[slot] = step
                st.routes += 1
                if deflected:
                    st.deflections += 1
                    if dead:
                        _attribute(st, dead, base, table[lin[dest] - lin[dst]][0])
                if upgraded:
                    if priority == 0:
                        st.upgrades_sleeping += 1
                    elif priority == 1:
                        st.upgrades_active += 1
                    else:
                        st.promotions_running += 1
                if demoted:
                    st.demotions += 1
                    if priority == 3 and not turning:
                        st.running_deflections_off_turn += 1
                seq = send_seq[dst]
                send_seq[dst] = seq + 1
                arrivals_append((
                    step1 + jitter, dst, seq, nbrs[slot],
                    step1, dest, newp, inject_step, jitter, distance, src,
                ))
        engine.sends += len(arrivals) - sent
        yield (
            min(step + INJECT_OFFSET, end), processed,
            len(arrivals) + len(routes) + n_ticks, None,
        )
        if last:
            break

        # INJECT then HEARTBEAT: self-sends at one timestamp each, so key
        # order is LP-id order.
        if not step + INJECT_OFFSET < end:
            break
        if tracer is not None:
            _trace(tracer, _ticks(INJECT, step, injectors, inj_seq))
        sent = len(arrivals)
        for i in injectors:
            # The next INJECT is sent first, whatever happens after.
            seq = inj_seq[i] = send_seq[i]
            send_seq[i] = seq + 1
            head = head_gen[i]
            script = scripts[i]
            if script is None:
                gen_step = head
            elif head < len(script):
                gen_step, dest = script[head]
            else:
                continue  # script exhausted: nothing is ever due
            if gen_step > step or (crashed and i in crashed):
                # Nothing waiting; or a crashed router, whose application
                # keeps generating into a backlog that drains after
                # recovery.
                continue
            base = i * 4
            if (
                (links[base] == step or not live[base])
                and (links[base + 1] == step or not live[base + 1])
                and (links[base + 2] == step or not live[base + 2])
                and (links[base + 3] == step or not live[base + 3])
            ):
                stats[i].inject_blocked += 1
                continue
            if script is None:
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
            elif jitter_on:
                # A scripted packet draws only its jitter
                # (ReversibleStream.integer(1, slots)).
                rng_state[i] = s1 = (MULTIPLIER * rng_state[i] + INCREMENT) & MASK64
                rng_count[i] += 1
                jitter = (1 + int((s1 >> 11) * _INV_2_53 * slots)) / two_slots
            else:
                jitter = FIXED_JITTER
            info = table[lin[dest] - lin[i]]
            for g in info[0]:
                if links[base + g] != step:
                    slot = base + g
                    break
            else:
                slot = (
                    base if live[base] and links[base] != step
                    else base + 1 if live[base + 1] and links[base + 1] != step
                    else base + 2 if live[base + 2] and links[base + 2] != step
                    else base + 3
                )
            st = stats[i]
            wait = step - gen_step
            links[slot] = step
            head_gen[i] = head + 1
            st.injected += 1
            st.total_inject_wait += wait
            if wait > st.max_inject_wait:
                st.max_inject_wait = wait
            send_seq[i] = seq + 2
            arrivals_append((
                step1 + jitter, i, seq + 1, nbrs[slot],
                step1, dest, 0, step, jitter, info[3], i,
            ))
        inj_step = step1
        processed += len(injectors)
        engine.sends += len(injectors) + len(arrivals) - sent
        while masked:  # dead links read as free again
            slot, claim = masked.pop()
            links[slot] = claim
        last = heartbeat and not step + HEARTBEAT_OFFSET < end
        if heartbeat and not last:
            if tracer is not None:
                _trace(tracer, _ticks(HEARTBEAT, step, range(n_lps), hb_seq))
            for i in range(n_lps):
                base = i * 4
                st = stats[i]
                st.util_claimed += (
                    (links[base] == step)
                    + (links[base + 1] == step)
                    + (links[base + 2] == step)
                    + (links[base + 3] == step)
                )
                st.util_samples += degree[i]
                seq = hb_seq[i] = send_seq[i]
                send_seq[i] = seq + 1
            hb_step = step1
            processed += n_lps
            engine.sends += n_lps
        in_flight = len(arrivals) + len(routes) + n_ticks
        cut.step, cut.processed, cut.in_flight = step1, processed, in_flight
        # A cut the run goes on from, unless this is the run's end.
        yield min(float(step1), end), processed, in_flight, cut if step1 < end else None
        if last:
            break
        step = step1

    # --- leave at the run's end: flat lists -> LP state ------------------
    while masked:
        slot, claim = masked.pop()
        links[slot] = claim
    write_back()
    engine.defer_pending(partial(
        _left_over, arrivals, routes, injectors, inj_step, inj_seq,
        hb_step if heartbeat else None, hb_seq,
    ))


def _write_back(lps, send_seq, rng_state, rng_count) -> None:
    """Give each router the ``send_seq`` and RNG state the program's
    lists hold for it."""
    for i, lp in enumerate(lps):
        lp.send_seq = send_seq[i]
        lp.rng.restore((rng_state[i], rng_count[i]))


def _init_band(engine, inits: list[Event], arrivals: list, inj_seq, hb_seq) -> None:
    """Run step 0's INIT events, freeing each as it runs.

    Each runs through the handler table's own ``init``, the per-event
    loop's statement of the initial fill, with a send that writes the
    program's band state instead of building an event: an ARRIVE becomes
    its packet tuple in ``arrivals``, an INJECT or HEARTBEAT self-send the
    router's entry in ``inj_seq`` / ``hb_seq``.  ``send_seq`` advances as
    :meth:`LogicalProcess.send <repro.core.lp.LogicalProcess.send>`
    advances it, and the draws are made on each router's own stream.
    """
    lps = engine.lps
    tracer = engine.tracer
    src = 0  # the router whose INIT is running

    def send(ts, dst, kind, data=None):
        lp = lps[src]
        seq = lp.send_seq
        lp.send_seq = seq + 1
        engine.sends += 1
        if kind == ARRIVE:
            arrivals.append((ts, src, seq, dst) + data)
        elif kind == INJECT:
            inj_seq[src] = seq
        else:  # HEARTBEAT
            hb_seq[src] = seq

    init = engine.model.handlers(lps, send)[INIT]
    inits.sort(key=attrgetter("key"), reverse=True)
    pop = inits.pop
    while inits:
        ev = pop()
        src = ev.dst
        ev.saved = {}  # the journal its execution writes
        init(ev, src, lps[src].rng)
        if tracer is not None:
            tracer.on_exec(ev)
            tracer.on_commit(ev)


def _due(band: list[tuple], limit: float) -> int:
    """Sort ``band`` descending, so that popping runs it in key order, and
    return how many of its tuples — the last ones — lie below ``limit``."""
    band.sort(reverse=True)
    lo, hi = 0, len(band)
    while lo < hi:
        mid = (lo + hi) // 2
        if band[mid][0] < limit:
            hi = mid
        else:
            lo = mid + 1
    return len(band) - lo


def _left_over(arrivals, routes, injectors, inj_step, inj_seq, hb_step, hb_seq):
    """The events the program's band state stands for when it leaves:
    the packets not yet run (popped, so each tuple is freed as its event
    is built), then each router's pending INJECT and, unless ``hb_step``
    is None, HEARTBEAT."""
    left: list[Event] = []
    push = left.append
    for kind, band in ((ARRIVE, arrivals), (ROUTE, routes)):
        while band:
            t = band.pop()
            push(Event(_tuple_new(EventKey, t[:3]), t[3], kind, t[_KEY_FIELDS:]))
    left.extend(_ticks(INJECT, inj_step, injectors, inj_seq))
    if hb_step is not None:
        left.extend(_ticks(HEARTBEAT, hb_step, range(len(hb_seq)), hb_seq))
    return left


def _ticks(kind: str, step: int, ids, seqs):
    """The INJECT or HEARTBEAT self-sends of step ``step`` of routers
    ``ids``, whose seqs are ``seqs``, in LP-id (key) order."""
    ts = step + (INJECT_OFFSET if kind == INJECT else HEARTBEAT_OFFSET)
    return (Event(_tuple_new(EventKey, (ts, i, seqs[i])), i, kind, step) for i in ids)


def _attribute(st, dead: set, base: int, good) -> None:
    """Count a deflection on the faults when some good direction was
    contention-free but down (the table's ``fault_deflections``): a
    down link is never claimed, so "down" is all it takes."""
    for g in good:
        if base + g in dead:
            st.fault_deflections += 1
            return


def _events(band: list[tuple], n: int, kind: str):
    """The events the last ``n`` tuples of a descending band stand for,
    in key order (the order they are popped in)."""
    return (
        Event(_tuple_new(EventKey, t[:3]), t[3], kind, t[_KEY_FIELDS:])
        for t in islice(reversed(band), n)
    )


def _trace(tracer, events) -> None:
    """Record each event as executed and committed, as the per-event
    loop does (a sequential event commits as it executes)."""
    on_exec = tracer.on_exec
    on_commit = tracer.on_commit
    for ev in events:
        on_exec(ev)
        on_commit(ev)
