"""The hot-potato network model: router population plus stat collection."""

from __future__ import annotations

from typing import Any

from repro.core.lp import LogicalProcess, Model
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.handlers import handlers as handler_table
from repro.hotpotato.policy import BuschHotPotatoPolicy, RoutingPolicy
from repro.hotpotato.router import (
    ARRIVE,
    HEARTBEAT,
    INIT,
    INJECT,
    MODEL_LOOKAHEAD,
    PACKET_FIELDS,
    PACKET_WIRE,
    ROUTE,
    RouterLP,
    RouterLPWithLog,
)
from repro.hotpotato.stats import aggregate_router_stats, stats_from_signature
from repro.net import TOPOLOGIES, GridTopology
from repro.rng.streams import ReversibleStream, derive_seed

__all__ = ["HotPotatoModel", "choose_injectors"]


def choose_injectors(cfg: HotPotatoConfig) -> tuple[bool, ...]:
    """Decide which routers host packet injection applications.

    Exact mode places ``round(fraction * n²)`` injectors evenly over the
    id space (deterministic, load-comparable across runs).  Probabilistic
    mode implements the report's ``probability_i`` literally: each router
    is an injector with probability ``fraction``, drawn from a dedicated
    layout stream so engine seeds don't change the workload.
    """
    num = cfg.num_routers
    frac = cfg.injector_fraction
    if frac <= 0.0:
        return (False,) * num
    if frac >= 1.0:
        return (True,) * num
    if cfg.exact_injectors:
        k = max(1, round(frac * num))
        marks = [False] * num
        for i in range(k):
            marks[(i * num) // k] = True
        return tuple(marks)
    flags = []
    for node in range(num):
        stream = ReversibleStream(derive_seed(cfg.layout_seed, node), node)
        flags.append(stream.unif() < frac)
    return tuple(flags)


class HotPotatoModel(Model):
    """N×N torus (or mesh) of bufferless hot-potato routers."""

    def __init__(
        self,
        cfg: HotPotatoConfig | None = None,
        policy: RoutingPolicy | None = None,
        fault_plan=None,
        injection_plan=None,
    ) -> None:
        self.cfg = cfg if cfg is not None else HotPotatoConfig()
        self.policy = policy if policy is not None else BuschHotPotatoPolicy()
        #: Optional repro.faults.FaultPlan; its *model* faults (link and
        #: router schedules) are compiled here so every engine — including
        #: the sequential oracle — sees the identical fault timeline.
        self.fault_plan = fault_plan
        failed: tuple = ()
        self._fault_views: dict = {}
        if fault_plan is not None and fault_plan.has_model_faults:
            from repro.faults.views import compile_node_views, static_failed_links

            fault_plan.validate(num_nodes=self.cfg.num_routers)
            # Links dead from step 0 that never heal are boot-time
            # knowledge: bake them into the topology so route_info plans
            # around them; everything time-varying stays in the per-node
            # views and is handled by local deflection.
            failed = static_failed_links(fault_plan)
        topo_cls = TOPOLOGIES[self.cfg.topology]
        self.topo: GridTopology = topo_cls(self.cfg.n, failed_links=failed)
        if fault_plan is not None and fault_plan.has_model_faults:
            self._fault_views = compile_node_views(fault_plan, self.topo)
        #: Grid shape consumed by the block LP/KP/PE mapping.
        self.grid = (self.cfg.n, self.cfg.n)
        #: Declared lookahead for conservative execution (see router.py).
        self.lookahead = MODEL_LOOKAHEAD
        #: Optional repro.scenarios.InjectionPlan: a precompiled adversary
        #: script replacing the Bernoulli injection application.  Like the
        #: fault plan, it is pure data — injections are a function of
        #: (plan, node, step) — so every engine and every Time Warp
        #: re-execution sees the identical workload.
        self.injection_plan = injection_plan
        if injection_plan is not None:
            injection_plan.validate(num_nodes=self.cfg.num_routers)
            self._adversary_scripts = injection_plan.compile(
                self.cfg.num_routers
            )
            # The adversary decides who injects: exactly the routers its
            # script names (cfg.injector_fraction is ignored).
            self.injectors = tuple(
                bool(s) for s in self._adversary_scripts
            )
        else:
            self._adversary_scripts = None
            self.injectors = choose_injectors(self.cfg)
        #: Commit-time (delivery_step, latency) log; populated during the
        #: run when cfg.delivery_log is set.  Entries commit in per-KP key
        #: order, so sort before time-series analysis.
        self.delivery_log: list[tuple[int, int]] = []

    def build(self) -> list[LogicalProcess]:
        """The router population, the same for every engine.

        The routers share one flat ``links`` list (four slots each) and
        one ``head_gen`` list, so the handler table and the band program
        can run them over the state they already hold (see
        :mod:`repro.hotpotato.router`).
        """
        cfg = self.cfg
        n = cfg.num_routers
        links = [-1] * (4 * n)
        head_gen = [0] * n
        log = self.delivery_log if cfg.delivery_log else None
        cls = RouterLPWithLog if log is not None else RouterLP
        lps = [
            cls(i, cfg, self.topo, self.policy, self.injectors[i], links, head_gen, log)
            for i in range(n)
        ]
        views = self._fault_views
        if views:
            for i, faults in views.items():
                lps[i].faults = faults
        scripts = self._adversary_scripts
        if scripts is not None:
            for i, script in enumerate(scripts):
                if script:
                    lps[i].adversary = script
        return lps

    def handlers(self, lps: list[LogicalProcess], send) -> dict:
        """The routers' handler table over ``lps``
        (:mod:`repro.hotpotato.handlers`), offered for every
        configuration: any policy, topology, fault plan or adversary.

        Every engine builds this table, process-mode workers after fork,
        so its module is imported with the model, never in a child."""
        return handler_table(lps, send)

    def band_program(self):
        """The sequential band program (:mod:`repro.hotpotato.band`),
        offered for every configuration the handler table runs: any
        policy, topology, fault plan or adversary."""
        from repro.hotpotato.band import BAND_START, run_bands

        return BAND_START, run_bands

    def checkpoint_state(self) -> Any:
        """Model-level mutable state: the commit-time delivery log."""
        if not self.cfg.delivery_log:
            return None
        return list(self.delivery_log)

    def restore_checkpoint(self, state: Any) -> None:
        if state is None:
            return
        # In place: the RouterLPs built from this model hold a reference
        # to this exact list.
        self.delivery_log[:] = state

    # ------------------------------------------------------------------
    # Multiprocess hooks (see repro.mp).
    # ------------------------------------------------------------------
    def mp_event_schema(self) -> dict:
        """Wire layout per event kind for the shared-memory rings.

        Only ARRIVE ever actually crosses a worker boundary (every other
        kind is a self-send), but declaring all five keeps the codec
        total over the model's kinds, so a future mapping change cannot
        silently hit the "kind not in schema" refusal mid-run.
        """
        packet = tuple(zip(PACKET_FIELDS, PACKET_WIRE))
        tick = (("step", "i"),)
        return {
            INIT: (),
            ARRIVE: packet,
            ROUTE: packet,
            INJECT: tick,
            HEARTBEAT: tick,
        }

    def mp_export_lp(self, lp: LogicalProcess) -> tuple:
        return lp.stats.signature()

    def mp_import_lp(self, lp: LogicalProcess, blob: tuple) -> None:
        lp.stats = stats_from_signature(blob)

    def mp_export_shard(self) -> list | None:
        if not self.cfg.delivery_log:
            return None
        return list(self.delivery_log)

    def mp_merge_shards(self, shards: list) -> None:
        merged: list[tuple[int, int]] = []
        for shard in shards:
            if shard:
                merged.extend(shard)
        # Workers commit in local key order; the documented contract of
        # delivery_log is "sort before time-series analysis", so the
        # merged log is handed over globally sorted.
        merged.sort()
        self.delivery_log[:] = merged

    def check_conservation(self, lps: list[LogicalProcess]) -> str | None:
        """Packet-conservation invariant (see repro.core.invariants).

        Deliveries only ever come from injected or initially-seeded
        packets; hot-potato routing never fabricates one.  Returns a
        diagnostic string on violation, None when conserved.
        """
        delivered = injected = initial = 0
        for lp in lps:
            s = lp.stats
            if s.delivered < 0 or s.injected < 0 or s.initial_packets < 0:
                return (
                    f"router {lp.id} has a negative counter (delivered="
                    f"{s.delivered}, injected={s.injected}, "
                    f"initial={s.initial_packets})"
                )
            delivered += s.delivered
            injected += s.injected
            initial += s.initial_packets
        if delivered > injected + initial:
            return (
                f"{delivered} packets delivered but only {injected} injected "
                f"+ {initial} initial exist"
            )
        return None

    def collect_stats(self, lps: list[LogicalProcess]) -> dict[str, Any]:
        stats = aggregate_router_stats(lps)
        stats["policy"] = self.policy.name
        stats["n"] = self.cfg.n
        stats["topology"] = self.cfg.topology
        stats["injectors"] = sum(self.injectors)
        if self.injection_plan is not None:
            stats["adversary"] = self.injection_plan.strategy
            stats["adversary_generated"] = len(self.injection_plan.entries)
        if self.fault_plan is not None:
            # Physical links statically failed (each is masked at both
            # endpoints, hence the halving).
            stats["failed_links"] = len(self.topo.failed_links) // 2
            stats["fault_events"] = len(self.fault_plan.events)
        return stats
