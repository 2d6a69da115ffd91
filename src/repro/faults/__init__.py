"""Deterministic, seed-driven fault injection for the simulation stack.

The subsystem is layered like the faults it injects:

* :mod:`repro.faults.plan` — the declarative :class:`FaultPlan` (timed
  link/router fault events, transport fault rates, PE stall windows),
  validation, JSON round-trip and rate-based :func:`generate_plan`.
* :mod:`repro.faults.views` — plan → per-node :class:`NodeFaults` views
  consulted by the routers, plus the static/dynamic link-failure split.
* :mod:`repro.faults.transport` — :class:`FaultyTransport`, the
  drop/duplicate/delay wrapper around the real PE transports.
* :mod:`repro.faults.injector` — :class:`EngineFaults`, the per-run
  driver the engines accept via ``attach_faults``.

Determinism: faults draw from their own RNG streams (derived from the
plan seed, never the traffic seed).  With no plan attached nothing is
wrapped or consulted — runs are bit-identical to a tree without this
package.  With a plan attached, model faults are a pure function of
``(plan, step)`` and engine faults are semantics-preserving, so the
sequential and optimistic engines still commit identical sequences.

A scenario's ``faults.generate`` section authors a plan and
``python -m repro.scenarios validate`` checks it against its grid; see
``docs/FAULTS.md`` for the format and guarantees.
"""

from repro.faults.injector import EngineFaults
from repro.faults.plan import (
    CRASH,
    DEFAULT_FAULT_SEED,
    LINK_DOWN,
    LINK_UP,
    RECOVER,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    PEStall,
    generate_plan,
    load_plan,
)
from repro.faults.transport import FaultyTransport
from repro.faults.views import NodeFaults, compile_node_views, static_failed_links

__all__ = [
    "CRASH",
    "DEFAULT_FAULT_SEED",
    "LINK_DOWN",
    "LINK_UP",
    "RECOVER",
    "EngineFaults",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultyTransport",
    "NodeFaults",
    "PEStall",
    "compile_node_views",
    "generate_plan",
    "load_plan",
    "static_failed_links",
]
