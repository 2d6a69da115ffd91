"""Baseline deflection-routing policies.

The related-work comparison the report cites (Bartzis et al. [5]) evaluates
several hot-potato variants on 2-D tori.  These plug-compatible policies
run on the same :class:`~repro.hotpotato.router.RouterLP`:

* :class:`GreedyPolicy` — the memoryless greedy deflection router: take any
  free good link, else deflect.  No priorities, no state machine.  This is
  the natural strawman the four-state algorithm improves on (its worst-case
  delivery time is unbounded under adversarial contention).
* :class:`RandomDeflectionPolicy` — uniformly random choice among free good
  links, uniformly random deflection otherwise; randomisation breaks the
  livelock patterns deterministic tie-breaking can sustain.
* :class:`TwoChoicePolicy` — balanced-allocation ("power of two choices")
  routing after Anagnostopoulos, Kontoyiannis & Upfal: sample two
  candidate links among the directions that make progress, take the less
  loaded of the two, deflect when both are taken.  In a bufferless router
  a link's load within a step is binary — claimed or free — so "less
  loaded" degenerates to "the free one", with the first sample winning
  the tie when both are free.

All of them keep packets in the ``ACTIVE`` state (priority 1) so the
router's priority-staggered ROUTE scheduling degenerates to a single
class, as in a plain hot-potato network, and return the plain decision
tuple :meth:`~repro.hotpotato.policy.RoutingPolicy.route` states.  Every
random draw goes through the LP's
:class:`~repro.rng.streams.ReversibleStream`, so all three run unmodified
(and bit-identically) on the sequential, conservative and Time Warp
engines.
"""

from __future__ import annotations

from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.policy import RoutingPolicy, first_free, first_free_good
from repro.net import DIRECTIONS, Direction, GridTopology
from repro.rng.streams import ReversibleStream

__all__ = [
    "GreedyPolicy",
    "RandomDeflectionPolicy",
    "TwoChoicePolicy",
    "POLICIES",
    "make_policy",
]


class GreedyPolicy(RoutingPolicy):
    """Memoryless greedy deflection: good link if free, else any link."""

    name = "greedy"

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
        d = first_free_good(topo, node, dest, free)
        if d is not None:
            return d, 1, False, False, False, False
        d = first_free(free)
        assert d is not None, "bufferless invariant violated"
        return d, 1, True, False, False, False


class RandomDeflectionPolicy(RoutingPolicy):
    """Uniformly random choice among candidates (good first, then any)."""

    name = "random-deflection"

    @staticmethod
    def _pick(
        candidates: tuple[Direction, ...], rng: ReversibleStream
    ) -> Direction:
        if len(candidates) == 1:
            # No draw for a forced choice keeps the RNG stream lean.
            return candidates[0]
        return candidates[rng.integer(0, len(candidates) - 1)]

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
        good = tuple(d for d in topo.good_dirs(node, dest) if free[d])
        if good:
            return self._pick(good, rng), 1, False, False, False, False
        anyfree = tuple(d for d in DIRECTIONS if free[d])
        assert anyfree, "bufferless invariant violated"
        return self._pick(anyfree, rng), 1, True, False, False, False


class TwoChoicePolicy(RoutingPolicy):
    """Balanced-allocation routing: two sampled candidates, less loaded wins.

    The classic two-choice allocation samples two bins uniformly (with
    replacement) and places the ball in the less loaded one.  Adapted to a
    bufferless deflection router, the bins are the *progress* directions
    toward the destination and a link's load within a step is its claimed
    bit: sample two good directions, take a free one (the first sample
    wins when both are free — the arbitrary tie-break of the allocation
    literature), and deflect onto the first free link in compass order
    when both candidates are already claimed, or when static link
    failures leave no progress direction to sample.  Both draws come
    batched from the reversible stream (one ``integer2`` call), so the
    policy is rollback-exact and engine-independent like everything else
    here.
    """

    name = "two-choice"

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
        good = topo.route_info(node, dest)[0]
        if len(good) > 1:
            hi = len(good) - 1
            i, j = rng.integer2(0, hi, 0, hi)
            a, b = good[i], good[j]
        elif good:
            # One progress direction: a forced "choice" draws nothing,
            # keeping the stream lean (cf. RandomDeflectionPolicy._pick).
            a = b = good[0]
        else:
            # Every progress direction is a statically failed link (dropped
            # from ``route_info``'s good set): deflect, drawing nothing.
            d = first_free(free)
            assert d is not None, "bufferless invariant violated"
            return d, 1, True, False, False, False
        if free[a]:
            return a, 1, False, False, False, False
        if free[b]:
            return b, 1, False, False, False, False
        # Both candidates loaded: deflect.  first_free may still land on
        # an unsampled good link; count it as progress, not a deflection.
        d = first_free(free)
        assert d is not None, "bufferless invariant violated"
        return d, 1, d not in good, False, False, False


#: Routing-policy registry: the single place scenario files and CLIs
#: resolve a policy name to its class ("busch" is the paper's four-state
#: algorithm; the rest are the baselines above).
def _policy_registry() -> dict:
    from repro.hotpotato.policy import BuschHotPotatoPolicy

    return {
        "busch": BuschHotPotatoPolicy,
        GreedyPolicy.name: GreedyPolicy,
        RandomDeflectionPolicy.name: RandomDeflectionPolicy,
        TwoChoicePolicy.name: TwoChoicePolicy,
    }


POLICIES: dict = _policy_registry()


def make_policy(name: str):
    """Instantiate a registered routing policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls()
