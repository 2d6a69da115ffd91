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
"""

from repro.core.config import EngineConfig
from repro.core.conservative import (
    ConservativeConfig,
    ConservativeKernel,
    run_conservative,
)
from repro.core.costmodel import CostModel
from repro.core.engine import SequentialEngine, run_sequential
from repro.core.event import Event
from repro.core.gvt import SynchronousGVT
from repro.core.kp import KernelProcess
from repro.core.lp import LogicalProcess, Model
from repro.core.mapping import Mapping, build_mapping
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.pe import ProcessingElement
from repro.core.queue import PendingQueue
from repro.core.result import RunResult
from repro.core.rollback import ReverseComputation, StateSaving, make_strategy
from repro.core.stats import KPStats, PEStats, RunStats
from repro.core.throttle import Throttle, ThrottleConfig
from repro.core.trace import TraceRecord, Tracer
from repro.core.transport import ImmediateTransport

__all__ = [
    "ConservativeConfig",
    "ConservativeKernel",
    "CostModel",
    "EngineConfig",
    "Event",
    "ImmediateTransport",
    "KPStats",
    "KernelProcess",
    "LogicalProcess",
    "Mapping",
    "Model",
    "PEStats",
    "PendingQueue",
    "ProcessingElement",
    "ReverseComputation",
    "RunResult",
    "RunStats",
    "SequentialEngine",
    "StateSaving",
    "SynchronousGVT",
    "Throttle",
    "ThrottleConfig",
    "TimeWarpKernel",
    "TraceRecord",
    "Tracer",
    "build_mapping",
    "make_strategy",
    "run_conservative",
    "run_optimistic",
    "run_sequential",
]
