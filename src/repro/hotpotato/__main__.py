"""``python -m repro.hotpotato`` — run one simulation from the shell.

Mirrors the report's program parameters (§3.3.1): network size N, number
of processors, simulation duration, ``probability_i`` (the injector
fraction) and ``absorb_sleeping_packet`` — plus this implementation's
engine knobs.  The workload flags compile to a scenario document
(:func:`flags_scenario`, docs/SCENARIOS.md) through the same
``compile_scenario`` call as ``--scenario FILE``, and
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` runs it.

Examples::

    python -m repro.hotpotato --n 8 --duration 200
    python -m repro.hotpotato --n 16 --processors 4 --kps 64 --probability-i 50
    python -m repro.hotpotato --n 8 --no-absorb-sleeping --validate
    python -m repro.hotpotato --n 8 --processors 4 --metrics-out run.jsonl \
        --trace-out run.jsonl        # then: python -m repro.obs timeline run.jsonl
    python -m repro.hotpotato --n 8 --fault-rate 10 --validate
    python -m repro.hotpotato --n 8 --fault-plan plan.json --processors 4
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.hotpotato.stats import model_lines
from repro.obs.capture import RunCapture
from repro.scenarios import (
    Scenario,
    ScenarioError,
    compile_scenario,
    load_scenario,
    report_scenario,
)

__all__ = ["main", "build_parser", "flags_scenario"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.hotpotato",
        description="Simulate hot-potato routing on an N x N bufferless torus.",
    )
    parser.add_argument("--n", type=int, default=8, help="network dimension N (default 8)")
    parser.add_argument(
        "--processors",
        type=int,
        default=1,
        help="simulated PEs; 1 = sequential engine (default)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=100.0,
        help="SIMULATION_DURATION in time steps (default 100)",
    )
    parser.add_argument(
        "--probability-i",
        type=float,
        default=100.0,
        help="percent of routers hosting injection applications (default 100)",
    )
    parser.add_argument(
        "--no-absorb-sleeping",
        action="store_true",
        help="run the proof-verification mode: routers do not absorb "
        "sleeping packets at their destination",
    )
    parser.add_argument(
        "--topology",
        choices=("torus", "mesh"),
        default="torus",
        help="grid topology by name (default torus)",
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        help="load the whole workload — topology, traffic, routing policy, "
        "faults, duration, seed — from a declarative scenario file "
        "(see docs/SCENARIOS.md); workload flags above are then ignored, "
        "engine flags still apply",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="P",
        help="run the optimistic engine across P OS processes (true "
        "multicore Time Warp over shared-memory rings; committed results "
        "are bit-identical to any other engine).  P must divide "
        "--processors.  Default, and --procs 1: in-process.",
    )
    parser.add_argument("--kps", type=int, default=16, help="kernel processes (default 16)")
    parser.add_argument("--batch", type=int, default=16, help="optimism batch size")
    parser.add_argument(
        "--gvt-interval",
        type=int,
        default=1,
        metavar="R",
        help="scheduling rounds between GVT computations (default 1).  "
        "With --procs every GVT is a cross-process stop-and-drain wave, "
        "so raise this (8-32) to amortise the barrier",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="global seed (default 0x5EED, or the scenario's seed)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="also run the other engine and check the results are identical",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="record GVT-interval metric samples to this JSONL file "
        "(inspect with python -m repro.obs)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="record the full event-lifecycle trace to this JSONL file; "
        "may equal --metrics-out to combine both streams in one recording",
    )
    parser.add_argument(
        "--spans-out",
        metavar="FILE",
        help="record wall-clock phase spans (exec/rollback/gvt/...) to "
        "this JSONL file; may equal --metrics-out/--trace-out to combine "
        "streams in one recording",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="FILE",
        help="inject faults from this JSON FaultPlan "
        "(author one with python -m repro.faults generate)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="PCT",
        help="quick fault mode: fail this percent of links permanently "
        "(generated deterministically from --fault-seed; ignored when "
        "--fault-plan is given)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for --fault-rate plan generation (default: repro.faults default)",
    )
    parser.add_argument(
        "--paranoid",
        action="store_true",
        help="run the opt-in kernel invariant checks at every GVT epoch "
        "(queue order, GVT monotonicity, packet conservation)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write crash-safe snapshots to DIR at boundaries (see "
        "--checkpoint-every and docs/CHECKPOINT.md); Ctrl-C then writes "
        "a final snapshot and exits 130",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        metavar="N",
        help="snapshot every N boundaries: GVT rounds, scheduler rounds "
        "or, sequential on the torus, step ends (default 4)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore the latest snapshot in --checkpoint-dir and continue; "
        "all other flags must match the interrupted run",
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="wall-clock cutoff: after SEC seconds the run is interrupted "
        "through the same deferred path as Ctrl-C (final snapshot with "
        "--checkpoint-dir, sinks finalized) and exits 124",
    )
    parser.add_argument(
        "--watchdog",
        action="store_true",
        help="attach the liveness watchdog (GVT stall / livelock / rollback "
        "thrash / memory growth detectors at default thresholds; see "
        "docs/HEALTH.md); trips tighten the optimistic throttle, then abort",
    )
    parser.add_argument(
        "--health-out",
        metavar="FILE",
        help="record watchdog health events to this JSONL file (implies "
        "--watchdog); may equal the other --*-out paths to combine streams",
    )
    return parser


def flags_scenario(args) -> Scenario:
    """The scenario document the workload flags declare (``--scenario``
    replaces it); both compile through the same ``compile_scenario``."""
    faults = args.fault_plan or None
    if faults is None and args.fault_rate:
        from repro.faults import DEFAULT_FAULT_SEED

        seed = DEFAULT_FAULT_SEED if args.fault_seed is None else args.fault_seed
        faults = {
            "generate": {"link_fail_rate": args.fault_rate / 100.0, "seed": seed}
        }
    return report_scenario(
        args.n,
        args.duration,
        injector_fraction=args.probability_i / 100.0,
        overrides={"absorb_sleeping": False} if args.no_absorb_sleeping else None,
        topology=args.topology,
        seed=0x5EED if args.seed is None else args.seed,
        faults=faults,
    )


def _config_marker(args, compiled) -> dict:
    """The configuration fingerprint stored in (and checked against)
    every snapshot — resuming under different flags is refused.

    One shape for flags and ``--scenario`` runs: the compiled scenario's
    identity (which covers a fault plan file's content, not its path)
    plus the engine flags.
    """
    return {
        "workload": "hotpotato",
        "scenario": compiled.name,
        "scenario_hash": compiled.scenario_hash(),
        "seed": compiled.sim.seed,
        "processors": args.processors,
        "kps": args.kps,
        "batch": args.batch,
        "gvt_interval": args.gvt_interval,
        "procs": args.procs,
        "paranoid": args.paranoid,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 <= args.probability_i <= 100.0:
        print("--probability-i must be within [0, 100]")
        return 2
    if not 0.0 <= args.fault_rate <= 100.0:
        print("--fault-rate must be within [0, 100]")
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir")
        return 2
    try:
        compiled = compile_scenario(
            load_scenario(args.scenario) if args.scenario else flags_scenario(args)
        )
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    sim = compiled.sim
    if args.seed is not None:
        sim.seed = args.seed
    cfg = sim.cfg
    use_parallel = args.processors > 1 or args.procs is not None
    engine = "optimistic" if use_parallel else "sequential"
    # Built before any file, checkpoint directory or worker process
    # exists, so every combination the configs refuse (--procs not
    # dividing --processors, --paranoid across workers, a KP count that
    # cannot tile the grid, ...) exits 2 with its message and no side
    # effect.  --validate's 4-PE twin is checked here too.
    try:
        settings = (
            {"engine_config": sim.engine_config(
                args.processors, args.kps, batch_size=args.batch,
                gvt_interval=args.gvt_interval, paranoid=args.paranoid,
                procs=1 if args.procs is None else args.procs,
            )}
            if use_parallel else {"paranoid": args.paranoid}
        )
        twin = (
            sim.engine_config(4, args.kps, batch_size=args.batch)
            if args.validate and args.processors <= 1 else None
        )
    except ConfigurationError as exc:
        print(f"configuration refused: {exc}")
        return 2

    ckpt = None
    if args.checkpoint_dir:
        from repro.ckpt import Checkpointer

        ckpt = Checkpointer(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            marker=_config_marker(args, compiled),
        )
    resumed_payload = None
    if args.resume:
        from repro.errors import SnapshotError

        if use_parallel and settings["engine_config"].procs > 1:
            # Process-mode snapshots are per-worker shards under
            # <dir>/shard_<i>; the workers locate and load the newest
            # consistent shard set themselves (docs/CHECKPOINT.md).
            ckpt.mp_resume = True
        else:
            try:
                resumed_payload = ckpt.load_latest()
            except SnapshotError as exc:
                print(f"resume failed: {exc}", file=sys.stderr)
                return 2
    if resumed_payload is not None and resumed_payload.get("obs") is not None:
        capture = RunCapture.resume(resumed_payload["obs"])
    else:
        capture = RunCapture(
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            spans_out=args.spans_out,
            health_out=args.health_out,
            meta={
                "engine": engine,
                "workload": "hotpotato",
                "n": cfg.n,
                "topology": cfg.topology,
                "duration": cfg.duration,
                "probability_i": 100.0 * cfg.injector_fraction,
                "seed": sim.seed,
                "processors": args.processors,
                "scenario": compiled.name,
                "scenario_hash": compiled.scenario_hash(),
            },
            fault_plan=sim.fault_plan,
            injection_plan=sim.injection_plan,
        )
    if ckpt is not None:
        ckpt.capture = capture

    watchdog = None
    if args.watchdog or args.health_out:
        from repro.health import HealthConfig, Watchdog

        # A bare CLI run has no recovery loop to restore it, so the
        # ladder is throttle-then-abort; repro.health.run_with_recovery
        # with a checkpointer adds the restore rung.
        watchdog = Watchdog(
            HealthConfig(ladder=("throttle", "abort")),
            sink=capture.health_sink,
        )

    from repro.ckpt import deferred_interrupts, wall_deadline
    from repro.errors import HealthIntervention

    try:
        with wall_deadline(args.deadline_seconds, ckpt) as deadline_expired, \
                deferred_interrupts(ckpt):
            result = sim.run(
                engine,
                tracer=capture.tracer,
                metrics=capture.metrics,
                spans=capture.spans,
                checkpointer=ckpt,
                health=watchdog,
                **settings,
            )
    except KeyboardInterrupt:
        capture.finalize(None)
        if deadline_expired():
            where = (
                f"; resume from {ckpt.last_path} with --resume"
                if ckpt is not None and ckpt.last_path is not None
                else ""
            )
            print(f"\ndeadline of {args.deadline_seconds:g}s reached{where}",
                  file=sys.stderr)
            return 124
        if ckpt is not None and ckpt.last_path is not None:
            print(f"\ninterrupted; resume from {ckpt.last_path} with --resume",
                  file=sys.stderr)
        else:
            print("\ninterrupted", file=sys.stderr)
        return 130
    except HealthIntervention as exc:
        capture.finalize(None)
        print(f"\nwatchdog abort: {exc}", file=sys.stderr)
        if watchdog is not None and watchdog.events:
            for ev in watchdog.events:
                print(f"  {ev}", file=sys.stderr)
        return 1
    capture.finalize(result)
    if ckpt is not None and ckpt.written:
        print(f"{ckpt.written} snapshot(s) in {ckpt.dir}")
    if watchdog is not None and watchdog.events:
        print(f"{len(watchdog.events)} watchdog trip(s):")
        for ev in watchdog.events:
            print(f"  {ev}")
    for out in sorted({str(s.path) for s in capture._sinks if s.path is not None}):
        print(f"telemetry written to {out}")

    ms = result.model_stats
    run = result.run
    label = f", scenario={compiled.name}" if args.scenario else ""
    procs_label = f" x {run.procs} procs" if run.procs > 1 else ""
    print(f"{cfg.n}x{cfg.n} {cfg.topology}, {ms['injectors']} injectors, "
          f"{cfg.duration:.0f} steps, engine={run.engine} "
          f"({run.n_pes} PE{procs_label}){label}")
    engine_lines = (
        (f"  events rolled back : {run.events_rolled_back:,}",
         f"  event rate (model) : {run.event_rate:,.0f} ev/s")
        if run.engine == "optimistic" else ()
    )
    print("\n".join(model_lines(result, engine_lines)))
    fault_plan = sim.fault_plan
    if fault_plan is not None:
        print(f"  fault events       : {ms.get('fault_events', 0):,} "
              f"({ms.get('failed_links', 0)} links statically failed)")
        print(f"  dropped at faults  : {ms.get('fault_dropped', 0):,} "
              f"(crash {ms.get('fault_dropped_crash', 0):,}, "
              f"no-link {ms.get('fault_dropped_no_link', 0):,})")
        print(f"  fault deflections  : {ms.get('fault_deflections', 0):,}")
        if fault_plan.has_transport_faults or fault_plan.has_stalls:
            print(f"  transport faults   : {run.transport_dropped:,} dropped, "
                  f"{run.transport_duplicated:,} duplicated, "
                  f"{run.transport_delayed:,} delayed; "
                  f"{run.pe_stall_rounds:,} PE stall rounds")

    if args.validate:
        other = (
            sim.run("optimistic", engine_config=twin) if twin is not None
            else sim.run()
        )
        identical = other.model_stats == ms
        print(f"  cross-engine check : {'IDENTICAL' if identical else 'MISMATCH'}")
        if not identical:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
