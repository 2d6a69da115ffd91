"""``python -m repro.hotpotato`` — run one simulation from the shell.

Mirrors the report's program parameters (§3.3.1): network size N, number
of processors, simulation duration, ``probability_i`` (the injector
fraction) and ``absorb_sleeping_packet`` — plus this implementation's
engine knobs.  The workload flags compile to a scenario document
(:func:`flags_scenario`, docs/SCENARIOS.md) through the same
``compile_scenario`` call as ``--scenario FILE``, and
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` runs it on the
``--engine`` named: by default seq, or opt when ``--processors`` exceeds 1
or ``--procs`` is given.  Each engine setting is the flag, else the
scenario's ``engine`` section, else ``CompiledScenario``'s default; flags
that contradict each other or the scenario are refused by name (exit 2).

Examples::

    python -m repro.hotpotato --n 8 --duration 200
    python -m repro.hotpotato --scenario examples/scenarios/mesh_greedy.json \
        --engine cons --validate
    python -m repro.hotpotato --n 16 --processors 4 --kps 64 --probability-i 50
    python -m repro.hotpotato --n 8 --no-absorb-sleeping --validate
    python -m repro.hotpotato --n 8 --processors 4 --metrics-out run.jsonl \
        --trace-out run.jsonl        # then: python -m repro.obs timeline run.jsonl
    python -m repro.hotpotato --n 8 --fault-rate 10 --validate
    python -m repro.hotpotato --n 8 --processors 4 --watchdog \
        --metrics-out run.jsonl      # then: python -m repro.obs watch run.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError, HealthIntervention, SnapshotError
from repro.hotpotato.stats import model_lines
from repro.net import TOPOLOGIES
from repro.obs.capture import RunCapture
from repro.scenarios import (
    Scenario,
    ScenarioError,
    compile_scenario,
    load_scenario,
    report_scenario,
)

__all__ = ["main", "build_parser", "flags_scenario"]

#: ``--engine``'s names for :data:`~repro.hotpotato.simulation.ENGINES`.
ENGINE_NAMES = {"seq": "sequential", "cons": "conservative", "opt": "optimistic"}

#: The flags a ``--scenario`` file declares instead.
WORKLOAD_FLAGS = (
    "--n", "--duration", "--probability-i", "--no-absorb-sleeping",
    "--topology", "--fault-rate",
)

#: Time Warp's flags, which the conservative kernel takes none of.
TIME_WARP_FLAGS = ("--procs", "--kps", "--batch", "--gvt-interval")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.hotpotato",
        description="Simulate hot-potato routing on an N x N bufferless torus.",
    )
    parser.add_argument("--n", type=int, default=8, help="network dimension N (default 8)")
    parser.add_argument(
        "--engine", choices=tuple(ENGINE_NAMES),
        help="seq (the oracle), cons (conservative) or opt (Time Warp); "
        "default: opt when --processors exceeds 1 or --procs is given, else seq",
    )
    parser.add_argument(
        "--processors",
        type=int,
        default=1,
        help="simulated PEs of cons or opt (default: the scenario's "
        "n_pes, else 4); above 1 it selects opt when --engine is not given",
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
        choices=tuple(TOPOLOGIES),
        default="torus",
        help="grid topology by name (default torus)",
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        help="load the whole workload — topology, traffic, routing policy, "
        "faults, duration, seed — and its engine defaults from a "
        "declarative scenario file (see docs/SCENARIOS.md); the workload "
        "flags are then refused, engine flags override its engine section",
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
    parser.add_argument(
        "--kps", type=int,
        help="kernel processes of opt (default: the scenario's n_kps, else "
        "four per PE, rounded down to a count that tiles the grid)",
    )
    parser.add_argument(
        "--batch", type=int,
        help="optimism batch size of opt (default: the scenario's "
        "batch_size, else 16)",
    )
    parser.add_argument(
        "--gvt-interval",
        type=int,
        metavar="R",
        help="scheduling rounds between GVT computations of opt (default 1).  "
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
        help="also run the other engine (Time Warp for seq, else the "
        "sequential oracle) and check the results are identical",
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
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="PCT",
        help="quick fault mode: fail this percent of links permanently "
        "(plan seed 0xFA117; a --scenario file's faults section names a "
        "plan file, declares one inline or generates one at any seed, "
        "see docs/FAULTS.md)",
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
        help="snapshot every N boundaries: GVT rounds (one per YAWNS "
        "window under cons) or, on the sequential band program, step ends "
        "(default 4)",
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
        "docs/HEALTH.md); trips tighten the optimistic throttle, then abort, "
        "and are printed and recorded as health lines in --metrics-out",
    )
    return parser


def flags_scenario(args) -> Scenario:
    """The scenario document the workload flags declare (``--scenario``
    replaces it); both compile through the same ``compile_scenario``."""
    faults = None
    if args.fault_rate:
        from repro.faults import DEFAULT_FAULT_SEED

        faults = {"generate": {
            "link_fail_rate": args.fault_rate / 100.0, "seed": DEFAULT_FAULT_SEED,
        }}
    return report_scenario(
        args.n,
        args.duration,
        injector_fraction=args.probability_i / 100.0,
        overrides={"absorb_sleeping": False} if args.no_absorb_sleeping else None,
        topology=args.topology,
        seed=0x5EED if args.seed is None else args.seed,
        faults=faults,
    )


def _given(parser, argv) -> set[str]:
    """The options the command line names, whatever their values."""
    unset = object()
    probe = parser.parse_args(
        argv, argparse.Namespace(**{a.dest: unset for a in parser._actions})
    )
    return {
        a.option_strings[0] for a in parser._actions
        if getattr(probe, a.dest) is not unset
    }


def _refusal(args, given: set[str], kind: str) -> str | None:
    """Why the flags cannot all hold, or None."""
    if not 0.0 <= args.probability_i <= 100.0:
        return "--probability-i must be within [0, 100]"
    if not 0.0 <= args.fault_rate <= 100.0:
        return "--fault-rate must be within [0, 100]"
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir"
    if args.checkpoint_dir and args.checkpoint_every < 1:
        return f"--checkpoint-every must be at least 1, got {args.checkpoint_every}"
    if args.deadline_seconds is not None and args.deadline_seconds <= 0:
        return f"--deadline-seconds must be positive, got {args.deadline_seconds:g}"
    for applies, flags, why in (
        (args.scenario, WORKLOAD_FLAGS, "--scenario declares the workload"),
        (kind == "conservative", TIME_WARP_FLAGS, "--engine cons takes no Time Warp flag"),
    ):
        clash = [flag for flag in flags if applies and flag in given]
        if clash:
            return f"{why}; drop {', '.join(clash)}"
    if kind == "sequential" and (args.processors > 1 or args.procs is not None):
        return "--engine seq runs on one PE; drop --processors/--procs"
    if args.processors < 1:
        return f"--processors must be at least 1, got {args.processors}"
    return None


def _engine_settings(args, compiled, kind: str, given: set[str]) -> dict:
    """What :meth:`HotPotatoSimulation.run` takes for ``kind``: the flags
    given, else the scenario's ``engine`` section, else the defaults.
    A parallel kind's is a whole ``EngineConfig``, built (and so refused)
    here, and so is a conservative run's transport-fault plan."""
    if kind == "sequential":
        return {"paranoid": args.paranoid}
    settings = compiled.engine_settings(
        kind, n_pes=args.processors if "--processors" in given else None,
        n_kps=args.kps, batch_size=args.batch,
    )
    if kind == "conservative":
        from repro.core.conservative import refuse_transport_faults

        refuse_transport_faults(compiled.sim.fault_plan)
        settings["n_kps"] = settings["n_pes"]
    fields = {"gvt_interval": args.gvt_interval, "procs": args.procs}
    return {"engine_config": compiled.sim.engine_config(
        **settings, paranoid=args.paranoid,
        **{k: v for k, v in fields.items() if v is not None},
    )}


def _config_marker(args, compiled, kind: str) -> dict:
    """The configuration fingerprint stored in (and checked against)
    every snapshot — resuming under different flags is refused.

    One shape for flags and ``--scenario`` runs: the compiled scenario's
    identity (which covers a fault plan file's content, not its path,
    and the engine section the unnamed settings come from) plus the
    engine and the engine flags.
    """
    return {
        "workload": "hotpotato",
        "scenario": compiled.name,
        "scenario_hash": compiled.scenario_hash(),
        "seed": compiled.sim.seed,
        "engine": kind,
        "processors": args.processors,
        "kps": args.kps,
        "batch": args.batch,
        "gvt_interval": args.gvt_interval,
        "procs": args.procs,
        "paranoid": args.paranoid,
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = _given(parser, argv)
    kind = ENGINE_NAMES.get(args.engine) or (
        "optimistic" if args.processors > 1 or args.procs is not None
        else "sequential"
    )
    refusal = _refusal(args, given, kind)
    if refusal is not None:
        print(f"configuration refused: {refusal}")
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
    # Built before any file, checkpoint directory or worker process
    # exists, so every combination the configs refuse (--procs not
    # dividing --processors, --paranoid across workers, a KP count that
    # cannot tile the grid, ...) exits 2 with its message and no side
    # effect.  --validate's Time Warp twin of a sequential run is
    # checked here too.
    try:
        settings = _engine_settings(args, compiled, kind, given)
        twin = (
            sim.engine_config(**compiled.engine_settings(
                "optimistic", n_kps=args.kps, batch_size=args.batch
            ))
            if args.validate and kind == "sequential" else None
        )
    except ConfigurationError as exc:
        print(f"configuration refused: {exc}")
        return 2

    def new_capture():
        meta = {
            "engine": kind,
            "workload": "hotpotato",
            "n": cfg.n,
            "topology": cfg.topology,
            "duration": cfg.duration,
            "probability_i": 100.0 * cfg.injector_fraction,
            "seed": sim.seed,
            "scenario": compiled.name,
        }
        # Only a recording writes the header, and hashing loads libcrypto.
        if any((args.metrics_out, args.trace_out, args.spans_out)):
            meta["scenario_hash"] = compiled.scenario_hash()
        return RunCapture(
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            spans_out=args.spans_out,
            meta=meta,
            fault_plan=sim.fault_plan,
            injection_plan=sim.injection_plan,
        )

    from repro.ckpt import ResumableRun

    marker = _config_marker(args, compiled, kind) if args.checkpoint_dir else None
    try:
        job = ResumableRun(
            new_capture,
            args.checkpoint_dir,
            every=args.checkpoint_every,
            marker=marker,
            resume=args.resume,
            procs=getattr(settings.get("engine_config"), "procs", 1),
        )
    except SnapshotError as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return 2
    ckpt, capture = job.ckpt, job.capture

    watchdog = None
    if args.watchdog:
        from repro.health import Watchdog

        # A trip throttles an adaptive Time Warp kernel or aborts the
        # run (exit 1 below); a checkpointed run restarts with --resume.
        watchdog = Watchdog(sink=capture.health_sink)

    try:
        result = job.run(
            sim, kind, deadline=args.deadline_seconds, health=watchdog,
            **settings,
        )
    except KeyboardInterrupt:
        if job.deadline_expired():
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
    except SnapshotError as exc:
        # The engine refused the grafted state (its engine kind or its
        # configuration), before any event ran.
        print(f"resume failed: {exc}", file=sys.stderr)
        return 2
    except HealthIntervention as exc:
        print(f"\nwatchdog abort: {exc}", file=sys.stderr)
        if watchdog is not None and watchdog.events:
            for ev in watchdog.events:
                print(f"  {ev}", file=sys.stderr)
        return 1
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
