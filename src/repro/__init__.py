"""repro — Routing without Flow Control, reproduced.

A from-scratch Python implementation of the system analysed in
"Routing without Flow Control: Hot-Potato Routing Simulation Analysis"
(Bush, RPI), the simulation study of Busch, Herlihy & Wattenhofer's SPAA
2001 hot-potato routing algorithm:

* :mod:`repro.core` — a ROSS-style optimistic parallel discrete-event
  kernel (Time Warp, reverse computation, GVT, kernel processes) plus a
  sequential oracle engine;
* :mod:`repro.net` — torus/mesh network geometry;
* :mod:`repro.hotpotato` — the hot-potato routing algorithm itself;
* :mod:`repro.baselines` — comparison routing algorithms;
* :mod:`repro.experiments` — runners regenerating every figure in the
  report's evaluation.

Quickstart::

    from repro import HotPotatoConfig, HotPotatoModel, run_sequential

    cfg = HotPotatoConfig(n=8, duration=100.0, injector_fraction=0.5)
    result = run_sequential(HotPotatoModel(cfg), cfg.duration)
    print(result.model_stats["avg_delivery_time"])

The package is a lazy index (:mod:`repro._lazy`): each exported name
imports its module on first use, so ``import repro`` loads nothing else.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.core.config": ("EngineConfig",),
    "repro.core.conservative": (
        "ConservativeConfig", "ConservativeKernel", "run_conservative",
    ),
    "repro.core.costmodel": ("CostModel",),
    "repro.core.engine": ("SequentialEngine", "run_sequential"),
    "repro.core.event": ("Event",),
    "repro.core.lp": ("LogicalProcess", "Model"),
    "repro.core.optimistic": ("TimeWarpKernel", "run_optimistic"),
    "repro.core.result": ("RunResult",),
    "repro.core.stats": ("RunStats",),
    "repro.core.trace": ("Tracer",),
    "repro.errors": (
        "ConfigurationError", "ModelError", "ReproError", "RollbackError",
        "SchedulingError", "TopologyError",
    ),
    "repro.hotpotato": (
        "HotPotatoConfig", "HotPotatoModel", "HotPotatoSimulation",
    ),
    "repro.net": ("Direction", "MeshTopology", "TorusTopology"),
    "repro.rng": ("ReversibleStream", "derive_seed"),
    "repro.version": ("__version__",),
    "repro.vt": ("EventKey",),
})
