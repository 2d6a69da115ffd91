"""The hot-potato (deflection) routing algorithm of Busch, Herlihy &

Wattenhofer (SPAA 2001), as simulated by the report this package
reproduces.  See :mod:`repro.hotpotato.policy` for the algorithm rules,
:mod:`repro.hotpotato.router` for the event-level simulation model, and
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` for the one-stop
API.
"""

from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel, choose_injectors
from repro.hotpotato.packet import Priority
from repro.hotpotato.policy import (
    BuschHotPotatoPolicy,
    RouteOutcome,
    RoutingPolicy,
    first_free,
    first_free_good,
)
from repro.hotpotato.router import (
    ARRIVE,
    HEARTBEAT,
    INIT,
    INJECT,
    ROUTE,
    RouterLP,
)
from repro.hotpotato.simulation import HotPotatoSimulation
from repro.hotpotato.stats import RouterStats, aggregate_router_stats

__all__ = [
    "ARRIVE",
    "BuschHotPotatoPolicy",
    "HEARTBEAT",
    "HotPotatoConfig",
    "HotPotatoModel",
    "HotPotatoSimulation",
    "INIT",
    "INJECT",
    "Priority",
    "ROUTE",
    "RouteOutcome",
    "RouterLP",
    "RouterStats",
    "RoutingPolicy",
    "aggregate_router_stats",
    "choose_injectors",
    "first_free",
    "first_free_good",
]
