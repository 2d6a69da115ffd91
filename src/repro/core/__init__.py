"""The discrete-event simulation kernels.

Two engines share one model API:

* :class:`~repro.core.engine.SequentialEngine` — the classic single-heap
  simulator, used as the correctness oracle;
* :class:`~repro.core.optimistic.TimeWarpKernel` — the ROSS-style
  optimistic parallel engine with reverse computation, kernel processes,
  GVT and fossil collection.

Models are written once against :class:`~repro.core.lp.LogicalProcess` /
:class:`~repro.core.lp.Model` and run unchanged on either engine; the
determinism tests assert the results are identical.

The package is a lazy index (:mod:`repro._lazy`): each name imports its
module on first use, so a sequential run never loads the parallel
kernels.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.core.config": ("EngineConfig",),
    "repro.core.conservative": ("ConservativeKernel", "run_conservative"),
    "repro.core.costmodel": ("CostModel",),
    "repro.core.engine": ("SequentialEngine", "run_sequential"),
    "repro.core.event": ("Event",),
    "repro.core.gvt": ("SynchronousGVT",),
    "repro.core.kp": ("KernelProcess",),
    "repro.core.lp": ("LogicalProcess", "Model"),
    "repro.core.mapping": ("Mapping", "build_mapping"),
    "repro.core.optimistic": ("TimeWarpKernel", "run_optimistic"),
    "repro.core.pe": ("ProcessingElement",),
    "repro.core.queue": ("PendingQueue",),
    "repro.core.result": ("RunResult",),
    "repro.core.rollback": (
        "ReverseComputation", "StateSaving", "make_strategy",
    ),
    "repro.core.stats": ("KPStats", "PEStats", "RunStats"),
    "repro.core.throttle": ("Throttle", "ThrottleConfig"),
    "repro.core.trace": ("TraceRecord", "Tracer"),
    "repro.core.transport": ("ImmediateTransport",),
})
