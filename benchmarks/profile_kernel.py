"""Profile the kernel hot path (not a benchmark — run directly).

Per the optimisation workflow (measure before optimising), this script
profiles a representative hot-potato run on any engine and prints the top
functions by cumulative time::

    python benchmarks/profile_kernel.py [--engine optimistic] [--seed 1]
                                        [--sort tottime] [--lines 25]
                                        [--dump before.pstats]
                                        [--procs 2 --gvt-interval 16]

Beside the table it prints the run's ``gc.get_stats()`` delta
(collections and objects collected per generation), the collector's
pause time before, during and after the run (timed by a ``gc.callbacks``
hook), and how many objects a later pass would walk
(``len(gc.get_objects())`` once the run has returned): the cyclic
collector's passes are C code entered from the allocator, charged to
whatever Python function happened to allocate, so the profile cannot show
them.  An engine pauses the collector while it runs and freezes what it
leaves alive (``Executor._collector_paused``), so *during* should be the
one collection on the way in, *after* should be nothing, and the count
should be near zero — the interpreter's exit collection walks only those
objects.  Anything more means something outside ``run``, or a model
building per-event cycles, is feeding the collector.

``--dump`` writes the raw profile to a ``pstats`` file so before/after
profiles of an optimisation PR can be diffed offline
(``pstats.Stats('before.pstats').sort_stats('tottime')``); ``--seed``
pins the run so the two profiles execute identical event sequences.

``--procs N`` (N >= 2) profiles the *workers* of a process-mode run: it
wraps ``MPWorkerKernel.run`` in ``cProfile`` before the fork, so every
worker inherits the wrapper and dumps ``<--dump>.worker<i>.prof`` as its
run returns; worker 0's top rows are printed.  The perfbench
``mp-p2-n32`` command is ``--n 32 --duration 30 --procs 2
--gvt-interval 16``.

Historical findings captured as comments where they drove code decisions:

* event execution dominates (as it should — the kernel adds ~2-3 Python
  function calls per event on top of the model handler);
* `heapq` beat a pure-Python splay tree on CPython by a constant factor
  (1.3x of heap's wall end to end, so the splay queue was deleted), and
  a Tang & Goh ladder queue by 1.06-1.18x (deleted too; DESIGN.md S17);
* `dict` payloads beat dataclass payloads for the ROUTE/ARRIVE hop loop.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import time

from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation
from repro.obs.capture import RunCapture


def profile_workers(prefix: str) -> None:
    """Make every forked worker profile its run into ``prefix.worker<i>.prof``."""
    from repro.mp.kernel import MPWorkerKernel

    run = MPWorkerKernel.run

    def profiled_run(kernel):
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(run, kernel)
        finally:
            profiler.dump_stats(f"{prefix}.worker{kernel.worker_index}.prof")

    MPWorkerKernel.run = profiled_run


def collector_delta(before: list[dict]) -> str:
    """What the cyclic collector did since ``before`` (a ``gc.get_stats()``)."""
    return "collector: " + ", ".join(
        f"gen{i} {now['collections'] - then['collections']:,} collections "
        f"({now['collected'] - then['collected']:,} collected)"
        for i, (then, now) in enumerate(zip(before, gc.get_stats()))
    )


class CollectorPauses:
    """Seconds the cyclic collector held the program, per phase of a run.

    Registered in ``gc.callbacks``; the caller moves :attr:`phase` from
    ``before`` to ``during`` to ``after`` around the run.
    """

    def __init__(self) -> None:
        self.phase = "before"
        self.seconds = dict.fromkeys(("before", "during", "after"), 0.0)
        self._start = 0.0
        gc.callbacks.append(self)

    def __call__(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._start = time.perf_counter()
        else:
            self.seconds[self.phase] += time.perf_counter() - self._start

    def line(self) -> str:
        gc.callbacks.remove(self)
        return "collector pauses: " + ", ".join(
            f"{s * 1e3:.1f} ms {phase}" for phase, s in self.seconds.items()
        ) + f" run; {len(gc.get_objects()):,} objects left for a later pass"


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--engine",
        default="optimistic",
        choices=("sequential", "optimistic", "conservative"),
        help="engine to profile",
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument("--sort", default="cumulative", help="pstats sort key")
    parser.add_argument("--lines", type=int, default=25, help="rows to print")
    parser.add_argument("--n", type=int, default=8, help="network dimension")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="run the optimistic engine on N >= 2 worker processes and "
        "profile the workers instead of this process (needs --dump)",
    )
    parser.add_argument(
        "--gvt-interval",
        type=int,
        default=1,
        metavar="R",
        help="scheduling rounds between GVT computations (optimistic engine)",
    )
    parser.add_argument(
        "--dump",
        metavar="FILE",
        help="also write the raw profile to FILE for offline diffing "
        "(with --procs: FILE.worker<i>.prof, one per worker)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="also record GVT-interval metrics to FILE — the same JSONL "
        "telemetry format as the CLIs (inspect with python -m repro.obs)",
    )
    parser.add_argument(
        "--spans-out",
        metavar="FILE",
        help="also record wall-clock phase spans to FILE (may equal "
        "--metrics-out); where the profiler shows function cost, spans "
        "show which engine phase spent it",
    )
    args = parser.parse_args()
    pauses = CollectorPauses()
    if args.procs is not None and (
        args.procs < 2 or args.engine != "optimistic" or not args.dump
    ):
        parser.error(
            "--procs profiles the workers of an optimistic run on >= 2 "
            "processes (--procs 1 is the in-process kernel) and "
            "needs --dump for the per-worker files"
        )

    sim = HotPotatoSimulation(
        HotPotatoConfig(n=args.n, duration=args.duration, injector_fraction=1.0),
        seed=args.seed,
    )
    model = sim.model()  # before the profiler starts; the engine is built inside
    capture = RunCapture(
        metrics_out=args.metrics_out,
        spans_out=args.spans_out,
        meta={
            "engine": args.engine,
            "workload": "hotpotato",
            "n": args.n,
            "duration": args.duration,
            "seed": args.seed,
        },
    )

    settings = {
        "sequential": {},
        "conservative": {"n_pes": 4},
        "optimistic": {
            "n_pes": 4, "n_kps": 16, "batch_size": 64,
            "gvt_interval": args.gvt_interval, "procs": args.procs or 1,
        },
    }[args.engine]
    if args.procs is not None:
        profile_workers(args.dump)

    gc_before = gc.get_stats()
    pauses.phase = "during"
    profiler = cProfile.Profile()
    profiler.enable()
    result = sim.run(
        args.engine, model=model, metrics=capture.metrics, spans=capture.spans,
        **settings,
    )
    profiler.disable()
    pauses.phase = "after"
    gc_line = collector_delta(gc_before)
    capture.finalize(result)
    if args.metrics_out or args.spans_out:
        print(f"telemetry written to {args.metrics_out or args.spans_out}")

    print(
        f"{args.engine}: {result.run.processed:,} events processed "
        f"({result.run.events_rolled_back:,} rolled back)"
    )
    gc_line += "\n" + pauses.line()
    if args.procs is not None:
        gc_line += " — this process; the workers ran the events"
    print(gc_line + "\n")
    if args.procs is not None:
        print("worker 0:")
        pstats.Stats(f"{args.dump}.worker0.prof").sort_stats(
            args.sort
        ).print_stats(args.lines)
        print(f"profiles written to {args.dump}.worker<i>.prof")
        return
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.lines)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"profile written to {args.dump}")


if __name__ == "__main__":
    main()
