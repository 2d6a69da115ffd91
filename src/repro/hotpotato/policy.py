"""Routing policies: the per-step link decision and priority transitions.

The policy layer is pure decision logic — given where a packet wants to go
and which output links are still free this step, pick a link and the
packet's next priority.  Keeping it separate from the router LP makes the
algorithm rules (§1.2.5) unit-testable without a simulator, and lets the
baseline algorithms (:mod:`repro.baselines`) plug into the same router.

The hot-potato rules implemented by :class:`BuschHotPotatoPolicy`:

* **Sleeping** — route to any good link (deflect if none).  Each time it is
  routed, upgrade to Active with probability 1/(24n).
* **Active** — route to any good link.  When deflected, upgrade to Excited
  with probability 1/(16n).
* **Excited** — route via the home-run path; success promotes to Running,
  deflection demotes back to Active (Excited lasts at most one step).
* **Running** — route via the home-run path; deflection (possible only
  while turning, per the theory) demotes to Active.

This module runs on every ROUTE event the handler table
(:mod:`repro.hotpotato.handlers`) executes — every Time Warp run,
whatever the policy — and on every ROUTE of the sequential band program
(:mod:`repro.hotpotato.band`) under a non-Busch policy, so a decision is
a plain tuple (see :meth:`RoutingPolicy.route`), not an object.  The band
program states the Busch rule a second time, inlined, and
``tests/test_band_program.py`` compares the two.

All probability draws go through the LP's reversible RNG stream, so the
Time Warp kernel can undo them.

Fault injection (:mod:`repro.faults`) never reaches this layer directly:
the router intersects the contention free-mask with its
:class:`~repro.faults.NodeFaults` link mask *before* calling the policy,
so policies only ever see links that are both uncontended and alive — and
are never called with an all-``False`` mask (the router drops the packet
and counts it first).  A fault-masked good direction shows up here simply
as "not free", which the deflection rules already handle.  A static
failure (a link down from boot) is dropped from ``route_info``'s good
links, so a policy may see no good link at all and must then deflect.
"""

from __future__ import annotations

from repro.hotpotato.config import HotPotatoConfig
from repro.net import DIRECTIONS, Direction, GridTopology
from repro.rng.lcg import INCREMENT, MASK64, MULTIPLIER, _INV_2_53
from repro.rng.streams import ReversibleStream

__all__ = [
    "RoutingPolicy",
    "BuschHotPotatoPolicy",
    "first_free_good",
    "first_free",
]


def first_free_good(
    topo: GridTopology, node: int, dest: int, free: tuple[bool, bool, bool, bool]
) -> Direction | None:
    """First free *good* link in the topology's deterministic order."""
    for d in topo.route_info(node, dest)[0]:
        if free[d]:
            return d
    return None


def first_free(
    free: tuple[bool, bool, bool, bool], avoid: Direction | None = None
) -> Direction | None:
    """First free link in compass order, optionally skipping one direction.

    ``avoid`` lets callers prefer not to bounce a packet straight back the
    way it came when another free link exists.
    """
    for d in DIRECTIONS:
        if free[d] and d != avoid:
            return d
    if avoid is not None and free[avoid]:
        return avoid
    return None


class RoutingPolicy:
    """Interface for per-packet routing decisions."""

    #: Name used in configs, stats and reports.
    name = "abstract"

    def route(
        self,
        topo: GridTopology,
        node: int,
        dest: int,
        priority: int,
        free: tuple[bool, bool, bool, bool],
        rng: ReversibleStream,
        cfg: HotPotatoConfig,
    ) -> tuple:
        """Decide the output link and next priority for one packet.

        ``free[d]`` tells whether output link ``d`` is still unclaimed this
        step.  At least one entry is True (bufferless invariant).  RNG
        draws must go through ``rng`` so rollbacks can undo them.

        Returns the decision as one plain tuple, in this order (the only
        statement of it; the handler table unpacks it positionally):

        ``(direction, new_priority, deflected, upgraded, demoted, turning)``

        * ``direction`` — the output link chosen; ``free[direction]`` holds.
        * ``new_priority`` — the packet's priority for the next hop, a
          :class:`~repro.hotpotato.packet.Priority` value as a plain int.
        * ``deflected`` — the hop does not advance toward the destination.
        * ``upgraded`` / ``demoted`` — priority transition flags.
          ``demoted`` marks an Excited/Running packet knocked off its
          home-run path (the theory's home-run deflection), even when the
          replacement hop still makes progress over another good link.
        * ``turning`` — the packet was at its home-run turn this step
          (only meaningful for Excited/Running packets).
        """
        raise NotImplementedError


class BuschHotPotatoPolicy(RoutingPolicy):
    """The SPAA 2001 four-priority hot-potato algorithm (see module doc).

    Priorities are the :class:`~repro.hotpotato.packet.Priority` values as
    plain ints: 0 Sleeping, 1 Active, 2 Excited, 3 Running.
    """

    name = "busch"

    def route(
        self,
        topo: GridTopology,
        node: int,
        dest: int,
        priority: int,
        free: tuple[bool, bool, bool, bool],
        rng: ReversibleStream,
        cfg: HotPotatoConfig,
    ) -> tuple:
        good, want, turning, _ = topo.route_info(node, dest)
        if priority >= 2:
            # Excited/Running: the one-bend path.  Success promotes
            # Excited to Running; Running just keeps running.
            if free[want]:
                return want, 3, False, priority == 2, False, turning
            # Knocked off the home-run path: back to Active either way
            # (``demoted``).  The hop may still make progress over another
            # good link, in which case it is not a ``deflected`` hop.
            for d in good:
                if free[d]:
                    return d, 1, False, False, True, turning
            d = first_free(free)
            assert d is not None, "bufferless invariant violated"
            return d, 1, True, False, True, turning
        # Sleeping/Active: any good link, else deflect.  The upgrade draws
        # are ``ReversibleStream.bernoulli`` inlined (same LCG step, same
        # output map — bit-identical values and counts).
        for d in good:
            if free[d]:
                deflected = False
                break
        else:
            deflected = True
            d = first_free(free)
            assert d is not None, "bufferless invariant violated"
        if priority == 0:
            # "When a packet in the Sleeping state is routed, it is given a
            # chance with the probability of 1/24n to upgrade" — on every
            # route, deflected or not.
            rng._state = state = (MULTIPLIER * rng._state + INCREMENT) & MASK64
            rng._count += 1
            if (state >> 11) * _INV_2_53 < cfg.sleeping_upgrade_p:
                return d, 1, deflected, True, False, turning
            return d, 0, deflected, False, False, turning
        # Active: the upgrade chance applies only when deflected.
        if deflected:
            rng._state = state = (MULTIPLIER * rng._state + INCREMENT) & MASK64
            rng._count += 1
            if (state >> 11) * _INV_2_53 < cfg.active_upgrade_p:
                return d, 2, True, True, False, turning
        return d, 1, deflected, False, False, turning
