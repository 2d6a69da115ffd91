"""Adversarial injection plans: who injects what, when — as pure data.

The stock workload is the report's Bernoulli injection application: every
injector generates one uniformly-addressed packet per step.  Adversarial
queueing theory (Andrews et al., "Source Routing and Scheduling in Packet
Networks") instead gives an *adversary* control of injection time, source
and destination, subject only to a rate bound.  An
:class:`InjectionPlan` captures one such adversary as a replayable
script: a sorted sequence of ``(step, node, dest)`` generation events,
at most one per router per step (the rate-1 bound of the bufferless
model; rates below 1 thin the schedule).

Determinism contract
--------------------
Exactly like :mod:`repro.faults`: a plan is *data*.  Generator
strategies (:func:`generate_injection_plan`) expand a ``(strategy, rate,
seed)`` triple into a concrete script once, using a dedicated RNG stream
derived from the plan seed — never the traffic or engine seed — so the
same inputs always produce the same script, every engine sees the
identical workload, and any Time Warp rollback interleaving re-executes
the identical injections.  The router draws only the arrival *jitter*
from its own reversible stream at injection time; the adversary's
decisions are fixed before the run starts and are logged verbatim to the
obs JSONL stream (``adversary`` lines) for forensics.

Strategies
----------
* ``hotspot`` — every packet targets one of ``hotspots`` evenly-spread
  sink routers; sources generate with probability ``rate`` per step.
  Saturates the sinks' four input links and exercises the deflection
  field around them.
* ``transpose`` — router ``(r, c)`` sends only to ``(c, r)``: the classic
  worst case for row-first (XY) schemes (all traffic crosses the
  diagonal).
* ``tornado`` — router ``(r, c)`` sends to ``(r, (c + cols//2) mod
  cols)``: maximal-distance row traffic that defeats nearest-neighbor
  load balancing.
* ``burst`` — alternating on/off windows (``burst_len`` steps generating
  at ``rate``, then ``burst_gap`` silent steps) with uniform random
  destinations: a bursty arrival process with the same long-run rate as
  a thinner Bernoulli feed.
* ``script`` — an explicit entry list (the replayable-adversary form);
  :func:`generate_injection_plan` never produces it, scenario files do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

from repro.errors import ConfigurationError
from repro.rng.streams import ReversibleStream, derive_seed

__all__ = [
    "STRATEGIES",
    "DEFAULT_ADVERSARY_SEED",
    "InjectionEvent",
    "InjectionPlan",
    "InjectionPlanError",
    "generate_injection_plan",
    "load_injection_plan",
]

#: Generator strategies (plus the explicit "script" form).
STRATEGIES = ("hotspot", "transpose", "tornado", "burst")

#: Plan-file schema version (bump on incompatible format changes).
PLAN_VERSION = 1

#: Stream id for plan expansion (shares nothing with LP traffic streams,
#: which use LP ids, nor with the fault streams 0xFA01/0xFA02).
_GENERATE_STREAM = 0xAD01

#: Default adversary seed, distinct from the engine's 0x5EED and the
#: fault subsystem's 0xFA117 defaults.
DEFAULT_ADVERSARY_SEED = 0xAD5A17


class InjectionPlanError(ConfigurationError):
    """An injection plan is malformed or inconsistent with the topology."""


@dataclass(frozen=True)
class InjectionEvent:
    """One adversary decision: ``node`` generates a packet for ``dest``
    at ``step`` (injected as soon after as a free link allows)."""

    step: int
    node: int
    dest: int

    def to_dict(self) -> dict:
        """JSON form (round-trips through :meth:`from_dict`)."""
        return {"step": self.step, "node": self.node, "dest": self.dest}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "InjectionEvent":
        try:
            return cls(
                step=int(doc["step"]),
                node=int(doc["node"]),
                dest=int(doc["dest"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InjectionPlanError(
                f"bad injection event {dict(doc)!r}: {exc}"
            ) from None


@dataclass(frozen=True)
class InjectionPlan:
    """One adversary's full injection script (see module docstring)."""

    entries: tuple[InjectionEvent, ...] = ()
    #: Strategy that generated the script ("script" for explicit lists).
    strategy: str = "script"
    #: Generation probability per (injector, step) the strategy used.
    rate: float = 1.0
    #: Seed of the expansion RNG stream.
    seed: int = DEFAULT_ADVERSARY_SEED

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the adversary injects nothing."""
        return not self.entries

    def validate(self, num_nodes: int | None = None) -> None:
        """Raise :class:`InjectionPlanError` on structural inconsistency.

        Checks ranges, self-addressed packets, and the rate bound: at
        most one generation per ``(node, step)`` pair, with per-node
        steps strictly increasing in entry order (which is what lets the
        router consume the script with a single cursor).
        """
        if not 0.0 <= self.rate <= 1.0:
            raise InjectionPlanError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        last_step: dict[int, int] = {}
        for ev in self.entries:
            if ev.step < 0:
                raise InjectionPlanError(
                    f"injection step must be >= 0, got {ev.step}"
                )
            for what, who in (("node", ev.node), ("dest", ev.dest)):
                if who < 0 or (num_nodes is not None and who >= num_nodes):
                    raise InjectionPlanError(
                        f"injection {what} {who} out of range"
                        + (f" 0..{num_nodes - 1}" if num_nodes is not None else "")
                    )
            if ev.node == ev.dest:
                raise InjectionPlanError(
                    f"router {ev.node} cannot inject a packet addressed "
                    f"to itself (step {ev.step})"
                )
            prev = last_step.get(ev.node)
            if prev is not None and ev.step <= prev:
                raise InjectionPlanError(
                    f"router {ev.node}: generation steps must strictly "
                    f"increase ({prev} then {ev.step}) — the adversary is "
                    "rate-bounded to one packet per router per step"
                )
            last_step[ev.node] = ev.step

    def compile(self, num_nodes: int) -> tuple[tuple, ...]:
        """Per-node scripts: ``scripts[i]`` is a tuple of ``(step, dest)``
        pairs in increasing step order (empty for non-injecting routers).

        The router consumes its script with its ``head_gen`` slot as a
        cursor, so injection is O(1) per step and exactly reversible.
        """
        per_node: list[list] = [[] for _ in range(num_nodes)]
        for ev in self.entries:
            per_node[ev.node].append((ev.step, ev.dest))
        return tuple(tuple(s) for s in per_node)

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "version": PLAN_VERSION,
            "strategy": self.strategy,
            "rate": self.rate,
            "seed": self.seed,
            "entries": [ev.to_dict() for ev in self.entries],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "InjectionPlan":
        version = doc.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise InjectionPlanError(
                f"injection plan version {version!r} is not the supported "
                f"version {PLAN_VERSION}"
            )
        try:
            return cls(
                entries=tuple(
                    InjectionEvent.from_dict(e) for e in doc.get("entries", ())
                ),
                strategy=str(doc.get("strategy", "script")),
                rate=float(doc.get("rate", 1.0)),
                seed=int(doc.get("seed", DEFAULT_ADVERSARY_SEED)),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise InjectionPlanError(
                f"malformed injection plan: {exc}"
            ) from None

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, exact round-trip)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def dump(self, target: str | Path | IO[str]) -> None:
        """Write the plan as JSON to a path or open text stream."""
        text = self.to_json()
        if isinstance(target, (str, Path)):
            Path(target).write_text(text)
        else:
            target.write(text)


def load_injection_plan(source: str | Path | IO[str]) -> InjectionPlan:
    """Load an :class:`InjectionPlan` from a JSON path or open stream."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InjectionPlanError(
            f"injection plan is not valid JSON: {exc}"
        ) from None
    if not isinstance(doc, dict):
        raise InjectionPlanError("injection plan JSON must be an object")
    return InjectionPlan.from_dict(doc)


# ----------------------------------------------------------------------
# Strategy expansion.
# ----------------------------------------------------------------------
def generate_injection_plan(
    topo,
    *,
    strategy: str,
    duration: float,
    rate: float = 1.0,
    seed: int = DEFAULT_ADVERSARY_SEED,
    hotspots: int = 1,
    burst_len: int = 8,
    burst_gap: int = 8,
) -> InjectionPlan:
    """Expand a named strategy into a concrete :class:`InjectionPlan`.

    Routers are visited in canonical id order and steps in increasing
    order, all draws from one stream derived from ``seed``, so the same
    ``(topology shape, strategy, rate, seed)`` always yields the same
    script (the :mod:`repro.faults` expansion discipline).
    """
    if strategy not in STRATEGIES:
        raise InjectionPlanError(
            f"unknown adversary strategy {strategy!r}; choose from "
            f"{list(STRATEGIES)}"
        )
    if not 0.0 <= rate <= 1.0:
        raise InjectionPlanError(f"rate must be in [0, 1], got {rate}")
    if strategy == "burst" and (burst_len < 1 or burst_gap < 0):
        raise InjectionPlanError(
            f"burst needs burst_len >= 1 and burst_gap >= 0, got "
            f"{burst_len}/{burst_gap}"
        )
    num = topo.num_nodes
    if strategy == "hotspot" and not 1 <= hotspots <= num:
        raise InjectionPlanError(
            f"hotspots must be in 1..{num}, got {hotspots}"
        )
    steps = max(1, int(duration))
    rng = ReversibleStream(derive_seed(seed, _GENERATE_STREAM), 0)
    entries: list[InjectionEvent] = []

    if strategy == "hotspot":
        # Sink routers spread evenly over the id space (the injector
        # placement rule, reused so hotspot count and injector count are
        # load-comparable).
        sinks = tuple((i * num) // hotspots for i in range(hotspots))
        for node in range(num):
            for step in range(steps):
                if rate < 1.0 and not rng.bernoulli(rate):
                    continue
                dest = (
                    sinks[rng.integer(0, hotspots - 1)]
                    if hotspots > 1
                    else sinks[0]
                )
                if dest == node:
                    continue  # sinks don't feed themselves
                entries.append(InjectionEvent(step, node, dest))
    elif strategy in ("transpose", "tornado"):
        for node in range(num):
            r, c = topo.coords(node)
            if strategy == "transpose":
                dest = topo.node_id(c, r)
            else:
                dest = topo.node_id(r, (c + topo.cols // 2) % topo.cols)
            if dest == node:
                continue  # diagonal routers are silent under transpose
            for step in range(steps):
                if rate < 1.0 and not rng.bernoulli(rate):
                    continue
                entries.append(InjectionEvent(step, node, dest))
    else:  # burst
        period = burst_len + burst_gap
        for node in range(num):
            for step in range(steps):
                if step % period >= burst_len:
                    continue
                if rate < 1.0 and not rng.bernoulli(rate):
                    continue
                d = rng.integer(0, num - 2)
                dest = d + 1 if d >= node else d
                entries.append(InjectionEvent(step, node, dest))

    entries.sort(key=lambda e: (e.step, e.node))
    plan = InjectionPlan(
        entries=tuple(entries), strategy=strategy, rate=rate, seed=seed
    )
    plan.validate(num_nodes=num)
    return plan
