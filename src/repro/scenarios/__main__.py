"""``python -m repro.scenarios`` — validate, inspect and run scenario files.

Subcommands::

    python -m repro.scenarios validate examples/scenarios/*.json
    python -m repro.scenarios show examples/scenarios/adversarial_hotspot.json
    python -m repro.scenarios run examples/scenarios/adversarial_hotspot.json \
        --engine optimistic --trace-out run.jsonl

``validate`` loads, validates *and compiles* each file (compilation
catches errors referential validation cannot, like an out-of-range
scripted destination).  ``show`` prints the resolved scenario — identity
hash, topology, expanded adversary size, fault events.  ``run`` executes
on one of the three engines with the usual telemetry flags, through the
compiled scenario's :class:`~repro.hotpotato.simulation.HotPotatoSimulation`
(flags override the scenario's engine defaults); committed results are
engine-independent, so any engine is equally authoritative.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.hotpotato.simulation import ENGINES
from repro.hotpotato.stats import model_lines
from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import load_scenario

__all__ = ["main", "build_parser"]

#: Short engine aliases accepted everywhere next to the full names.
_ENGINE_ALIASES = {"seq": "sequential", "cons": "conservative", "opt": "optimistic"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Validate, inspect and run declarative scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="load + validate + compile scenario files"
    )
    p_validate.add_argument("files", nargs="+", metavar="FILE")

    p_show = sub.add_parser("show", help="print one resolved scenario")
    p_show.add_argument("file", metavar="FILE")

    p_run = sub.add_parser("run", help="run one scenario on an engine")
    p_run.add_argument("file", metavar="FILE")
    p_run.add_argument(
        "--engine",
        default="sequential",
        choices=tuple(ENGINES) + tuple(_ENGINE_ALIASES),
        help="engine to run on (default sequential; seq/cons/opt accepted)",
    )
    p_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's engine seed",
    )
    p_run.add_argument(
        "--processors", type=int, default=None,
        help="override PEs for the parallel engines",
    )
    p_run.add_argument(
        "--kps", type=int, default=None,
        help="override KPs for the optimistic engine",
    )
    p_run.add_argument(
        "--batch", type=int, default=None,
        help="override the optimism batch size",
    )
    p_run.add_argument(
        "--validate", action="store_true",
        help="also run the sequential oracle and check the results match",
    )
    p_run.add_argument(
        "--metrics-out", metavar="FILE",
        help="record GVT-interval metric samples to this JSONL file",
    )
    p_run.add_argument(
        "--trace-out", metavar="FILE",
        help="record the full event-lifecycle trace to this JSONL file; "
        "may equal --metrics-out to combine streams in one recording",
    )
    p_run.add_argument(
        "--spans-out", metavar="FILE",
        help="record wall-clock phase spans to this JSONL file",
    )
    return parser


# ----------------------------------------------------------------------
def cmd_validate(files: list[str]) -> int:
    failures = 0
    for path in files:
        try:
            compiled = compile_scenario(load_scenario(path))
        except (ConfigurationError, OSError) as exc:
            print(f"FAIL  {path}: {exc}")
            failures += 1
            continue
        sim = compiled.sim
        extras = []
        if sim.injection_plan is not None:
            extras.append(
                f"adversary={sim.injection_plan.strategy}"
                f"({len(sim.injection_plan.entries)} injections)"
            )
        if sim.fault_plan is not None:
            extras.append(f"faults={len(sim.fault_plan.events)} events")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(
            f"ok    {path}: {compiled.name} "
            f"({compiled.scenario_hash()}){suffix}"
        )
    if failures:
        print(f"{failures} of {len(files)} scenario file(s) failed validation")
        return 1
    print(f"all {len(files)} scenario file(s) valid")
    return 0


def cmd_show(path: str) -> int:
    scenario = load_scenario(path)
    compiled = compile_scenario(scenario)
    sim = compiled.sim
    cfg = sim.cfg
    print(f"scenario : {compiled.name}  [{compiled.scenario_hash()}]")
    if scenario.description:
        print(f"about    : {scenario.description}")
    print(f"topology : {cfg.n}x{cfg.n} {cfg.topology} ({cfg.num_routers} routers)")
    traffic = scenario.traffic
    if sim.injection_plan is not None:
        plan = sim.injection_plan
        steps = max((e.step for e in plan.entries), default=0) + 1
        print(
            f"traffic  : adversarial/{plan.strategy}, rate {plan.rate}, "
            f"seed {plan.seed} -> {len(plan.entries)} injections over "
            f"{steps} steps"
        )
    else:
        print(
            "traffic  : bernoulli, injector_fraction "
            f"{traffic.get('injector_fraction', 1.0)}"
        )
    print(f"routing  : {sim.policy.name}")
    print(
        f"engine   : duration {cfg.duration:g}, seed {sim.seed}, "
        f"defaults n_pes={compiled.n_pes} n_kps={compiled.n_kps or 'auto'} "
        f"batch={compiled.batch_size}"
    )
    overrides = scenario.engine.get("overrides", {})
    if overrides:
        print(f"overrides: {overrides}")
    if sim.fault_plan is not None:
        plan = sim.fault_plan
        print(
            f"faults   : {len(plan.events)} scheduled events "
            f"(seed {plan.seed})"
        )
    else:
        print("faults   : none")
    return 0


def cmd_run(args) -> int:
    from repro.obs.capture import RunCapture

    compiled = compile_scenario(load_scenario(args.file))
    sim = compiled.sim
    if args.seed is not None:
        sim.seed = args.seed
    cfg = sim.cfg
    engine = _ENGINE_ALIASES.get(args.engine, args.engine)
    settings = compiled.engine_settings(
        engine, n_pes=args.processors, n_kps=args.kps, batch_size=args.batch
    )
    capture = RunCapture(
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        spans_out=args.spans_out,
        meta={
            "engine": engine,
            "workload": "scenario",
            "scenario": compiled.name,
            "scenario_hash": compiled.scenario_hash(),
            "n": cfg.n,
            "topology": cfg.topology,
            "policy": sim.policy.name,
            "duration": cfg.duration,
            "seed": sim.seed,
        },
        fault_plan=sim.fault_plan,
        injection_plan=sim.injection_plan,
    )
    result = sim.run(
        engine,
        tracer=capture.tracer,
        metrics=capture.metrics,
        spans=capture.spans,
        **settings,
    )
    capture.finalize(result)
    for out in sorted({str(s.path) for s in capture._sinks if s.path is not None}):
        print(f"telemetry written to {out}")

    ms = result.model_stats
    run = result.run
    print(
        f"{compiled.name} [{compiled.scenario_hash()}]: {cfg.n}x{cfg.n} "
        f"{cfg.topology}, policy={sim.policy.name}, "
        f"{cfg.duration:g} steps, engine={run.engine} ({run.n_pes} PE)"
    )
    print("\n".join(model_lines(result)))
    if sim.fault_plan is not None:
        print(
            f"  fault events       : {ms.get('fault_events', 0):,} "
            f"({ms.get('failed_links', 0)} links statically failed)"
        )

    if args.validate:
        # The other side of the check: the sequential oracle for a
        # parallel run, Time Warp for a sequential one.
        twin = "optimistic" if engine == "sequential" else "sequential"
        other = sim.run(twin, **compiled.engine_settings(
            twin, n_pes=args.processors, n_kps=args.kps, batch_size=args.batch
        ))
        identical = other.model_stats == ms
        check = "cross-engine check" if twin == "optimistic" else "oracle check"
        print(f"  {check:<18} : {'IDENTICAL' if identical else 'MISMATCH'}")
        if not identical:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.files)
        if args.command == "show":
            return cmd_show(args.file)
        return cmd_run(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
