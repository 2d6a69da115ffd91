"""Hot-potato simulation configuration.

The five input parameters of the report's simulation (§3.3.1) plus the
knobs its discussion sections vary:

1. ``n`` — network dimension (the report requires a multiple of 8 only so
   the block LP/KP mapping tiles evenly; we check that at mapping time
   instead, so any n >= 2 is accepted here).
2. the PE count — an engine concern, see
   :class:`repro.core.config.EngineConfig`.
3. ``duration`` — ``SIMULATION_DURATION`` in time steps.
4. ``injector_fraction`` — ``probability_i``: the probability that a given
   router hosts a packet injection application.
5. ``absorb_sleeping`` — whether routers absorb sleeping packets at their
   destination (practical mode) or only higher-priority ones (the proof's
   model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["HotPotatoConfig"]


@dataclass(frozen=True)
class HotPotatoConfig:
    """Parameters for one hot-potato routing simulation.

    Attributes
    ----------
    n:
        Grid dimension: the network is an n×n torus (or mesh).
    duration:
        Simulation end barrier, in time steps (one step = one link
        traversal, §1.1.1).
    injector_fraction:
        Fraction of routers hosting injection applications.  With
        ``exact_injectors`` (default) exactly ``round(f * n*n)`` routers,
        spread deterministically over the grid, inject; otherwise each
        router independently injects with this probability (the report's
        literal ``probability_i`` semantics).
    initial_fill:
        Fraction of each router's four output links seeded with a packet at
        step 0.  The report initialises the network "to full (four packets
        per router)"; with ``injector_fraction=0`` and full fill the run is
        the static (one-shot) analysis.
    absorb_sleeping:
        Parameter 5 of §3.3.1 (see module docstring).
    topology:
        Named topology: ``"torus"`` (the simulated configuration) or
        ``"mesh"`` (the theoretical analysis configuration); a name from
        :data:`repro.net.TOPOLOGIES`.  Scenario files and CLIs use it.
    arrival_jitter:
        Randomise packet arrival offsets within the step (§3.2.2).  Our
        engines are deterministic either way; the jitter changes *which*
        packet wins same-priority link contention from "arbitrary but
        deterministic" to "uniformly random", matching the report.
    jitter_slots:
        Jitter granularity: offsets are ``integer(1, jitter_slots) / (2 *
        jitter_slots)``, i.e. uniform on (0, 0.5] in slot steps.
    sleeping_upgrade_scale / active_upgrade_scale:
        The probabilities of upgrading Sleeping→Active on a route and
        Active→Excited on a deflection are ``1 / (scale * n)``; the paper
        uses 24 and 16 (§1.2.5).
    heartbeat:
        Schedule a HEARTBEAT event per router per step sampling output-link
        utilisation.  Off by default, "in order to reduce the total number
        of simulated events" (§3.1.4).
    layout_seed:
        Seed for the injector-placement draw in probabilistic mode.
    """

    n: int = 8
    duration: float = 100.0
    injector_fraction: float = 1.0
    initial_fill: float = 1.0
    absorb_sleeping: bool = True
    topology: str = "torus"
    arrival_jitter: bool = True
    jitter_slots: int = 500
    sleeping_upgrade_scale: float = 24.0
    active_upgrade_scale: float = 16.0
    heartbeat: bool = False
    exact_injectors: bool = True
    #: Record a (delivery_step, latency) entry for every absorbed packet.
    #: Collected at *commit* time, which is rollback-safe by construction
    #: (committed events are final); analyse with repro.analysis.timeseries.
    delivery_log: bool = False
    layout_seed: int = 42

    #: Names accepted by the ``topology`` field (future shapes slot in
    #: here and in repro.net.TOPOLOGIES together).
    TOPOLOGY_NAMES = ("torus", "mesh")

    def __post_init__(self) -> None:
        if self.topology not in self.TOPOLOGY_NAMES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; choose from "
                f"{list(self.TOPOLOGY_NAMES)}"
            )
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if not 0.0 <= self.injector_fraction <= 1.0:
            raise ConfigurationError(
                f"injector_fraction must be in [0, 1], got {self.injector_fraction}"
            )
        if not 0.0 <= self.initial_fill <= 1.0:
            raise ConfigurationError(
                f"initial_fill must be in [0, 1], got {self.initial_fill}"
            )
        if self.jitter_slots < 1:
            raise ConfigurationError("jitter_slots must be >= 1")
        if self.sleeping_upgrade_scale <= 0 or self.active_upgrade_scale <= 0:
            raise ConfigurationError("upgrade scales must be positive")

    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        """Total routers in the grid."""
        return self.n * self.n

    @property
    def sleeping_upgrade_p(self) -> float:
        """P(Sleeping→Active per route) = 1/(24n) with paper defaults."""
        return 1.0 / (self.sleeping_upgrade_scale * self.n)

    @property
    def active_upgrade_p(self) -> float:
        """P(Active→Excited per deflection) = 1/(16n) with paper defaults."""
        return 1.0 / (self.active_upgrade_scale * self.n)
