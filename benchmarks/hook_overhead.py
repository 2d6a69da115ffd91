"""Gate the wall-clock cost of the four attachable engine hooks.

Each hook sits off the fused per-event paths and is consulted only at
round / GVT boundaries, so attaching one may slow a run by at most its
limit.  Two hooks are attached but given nothing to do (an empty fault
plan, a checkpointer whose cadence never fires); two do their real work
(the span tracer, the liveness watchdog)::

    PYTHONPATH=src python benchmarks/hook_overhead.py

prints one ratio per hook and exits 1 when a ratio exceeds its limit,
when a hooked run commits a different number of events, or when the
hook turns out never to have been consulted (a dead hook is free).

The ratio is the median of per-pair hooked/plain wall ratios over
back-to-back pairs on the 8x8 full-load torus for 60 steps (~0.1 s a
run): adjacent runs see the same CPU frequency and scheduling state, so
drift cancels within a pair and the median discards the pairs a noise
burst landed in.  A workload much shorter than this one times the timer,
not the hook, and the 10% gates flake.  On a shared host the median of
nine pairs still lands past 1.10 about one time in fifteen with nothing
wrong, so a ratio over its limit is measured once more over three times
the pairs before it counts: noise does not repeat, a hook that has crept
onto the per-event path (1.3x and up) does.  ``tests/test_hook_overhead.py``
asserts the deterministic half of every row (same committed count, hook
live) on a tiny workload in tier-1.
"""

from __future__ import annotations

import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

from repro.ckpt import Checkpointer
from repro.core.config import EngineConfig
from repro.core.optimistic import run_optimistic
from repro.core.result import RunResult
from repro.faults import EngineFaults, FaultPlan
from repro.health import Watchdog
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.obs.spans import SpanTracer

WORKLOAD = HotPotatoConfig(n=8, duration=60.0, injector_fraction=1.0)
PAIRS = 9


class Gate(NamedTuple):
    """One hook: how to attach it, what it may cost, how to tell it ran."""

    name: str
    #: ``run_optimistic`` keyword the hook is passed as.
    keyword: str
    #: Builds a fresh hook; the argument is a scratch directory.
    make: Callable[[Path], object]
    #: Largest accepted hooked/plain wall ratio.
    limit: float
    #: True when the finished run shows the hook was consulted and did
    #: what this row expects of it.
    live: Callable[[object], bool]
    #: What ``live`` checks, in words, for the failure message.
    expects: str


GATES = (
    Gate(
        "empty fault plan", "faults",
        lambda tmp: EngineFaults(FaultPlan()), 1.6,
        lambda hook: hook.transport is None and hook.stall_rounds == 0,
        "the transport left unwrapped and no PE stalled",
    ),
    Gate(
        "idle checkpointer", "checkpointer",
        lambda tmp: Checkpointer(tmp / "idle", every=1 << 30), 1.6,
        lambda hook: hook.boundaries > 0 and hook.written == 0,
        "every boundary seen and no snapshot written",
    ),
    Gate(
        "span tracer", "spans",
        lambda tmp: SpanTracer(), 1.10,
        lambda hook: len(hook) > 0,
        "spans recorded",
    ),
    Gate(
        "liveness watchdog", "health",
        lambda tmp: Watchdog(), 1.10,
        lambda hook: hook.boundaries > 0 and not hook.events,
        "consulted at GVT boundaries and no health event on a healthy run",
    ),
)


def run(cfg: HotPotatoConfig, **hooks) -> RunResult:
    """One 4-PE Time Warp run of ``cfg`` with ``hooks`` attached."""
    ecfg = EngineConfig(
        end_time=cfg.duration, n_pes=4, n_kps=16, batch_size=64, seed=0xB5EED
    )
    return run_optimistic(HotPotatoModel(cfg), ecfg, **hooks)


def deterministic_failures(gate: Gate, cfg: HotPotatoConfig, tmp: Path) -> list[str]:
    """What is wrong with ``gate``'s hooked run besides its speed."""
    hook = gate.make(tmp)
    plain, hooked = run(cfg).run, run(cfg, **{gate.keyword: hook}).run
    failures = []
    if hooked.committed != plain.committed:
        failures.append(
            f"{gate.name} changed the committed count "
            f"({hooked.committed} != {plain.committed})"
        )
    if not gate.live(hook):
        failures.append(f"{gate.name} is dead or misbehaved: expected {gate.expects}")
    return failures


def _timed_run(cfg: HotPotatoConfig, **hooks) -> float:
    # A dead kernel is reclaimed only by the cycle collector (its closures
    # hold it), and one whose run began with the collector on is frozen;
    # unfreeze and collect before, disable during, or one run pays the
    # previous run's debt.
    gc.unfreeze()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run(cfg, **hooks)
        return time.perf_counter() - start
    finally:
        gc.enable()


def paired_ratio(gate: Gate, cfg: HotPotatoConfig, tmp: Path, pairs: int = PAIRS) -> float:
    """Median hooked/plain wall ratio over ``pairs`` back-to-back pairs."""
    ratios = []
    for i in range(pairs):
        hooks = {gate.keyword: gate.make(tmp)}
        if i % 2:  # alternate which side runs first
            hooked_s, plain_s = _timed_run(cfg, **hooks), _timed_run(cfg)
        else:
            plain_s, hooked_s = _timed_run(cfg), _timed_run(cfg, **hooks)
        ratios.append(hooked_s / plain_s)
    return statistics.median(ratios)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        for gate in GATES:
            failures += deterministic_failures(gate, WORKLOAD, tmp)
            ratio = paired_ratio(gate, WORKLOAD, tmp)
            if ratio > gate.limit:
                ratio = paired_ratio(gate, WORKLOAD, tmp, pairs=3 * PAIRS)
            print(f"{gate.name:<18} {ratio:.2f}x (limit {gate.limit:.2f}x)")
            if ratio > gate.limit:
                failures.append(
                    f"{gate.name} costs {ratio:.2f}x, over its {gate.limit:.2f}x "
                    "limit: a hook has crept onto a per-event path"
                )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
